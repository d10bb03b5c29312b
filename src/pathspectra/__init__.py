"""Monotone and coherent path spectra of polytopes.

Exact-arithmetic counting of monotone paths by length, coherence decisions via
the slope cone, constructors and closed-form oracles for the standard polytope
families, and Monte Carlo machinery for projected random polytopes on spheres.
"""

from .errors import (DegeneracyError, GenericityError, InputError,
                     VerificationMismatch)
from .exactgeom import DirectedGraph, Polytope, orient, project2d, upper_path
from .pathcount import (LengthSpectrum, MonotonePath, count_paths_by_length,
                        enumerate_paths, is_log_concave, is_symmetric,
                        is_ultra_log_concave, is_unimodal, modes,
                        prism_spectrum)
from .coherence import (CoherenceCertificate, SlopeCone, coherent_paths,
                        coherent_spectrum, is_coherent, sample_coherent,
                        shadow_path, slope_cone)

__version__ = "0.1.0"
