"""One BLAS thread for the benchmark and every process it starts.

The matrices are small (order 8, at most about 720 in a Scheme-1
certificate) and the machine is shared, so extra threads add noise, not
speed.  Importing this module sets the thread counts in the environment,
which child processes inherit; import it before numpy.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
