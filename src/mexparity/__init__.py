"""mexparity: exact q-series and partition machinery for parity analysis
of mex-defined partition counts, with brute-force oracles, congruence
verification suites and an empirical congruence scanner."""

from .series import *
from .errors import *
from .partitions import *
from .genfun import *
from .verify import *

__version__ = "0.1.0"
