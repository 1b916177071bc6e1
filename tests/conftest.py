import os

# One BLAS/OpenMP thread unless set explicitly, as the lpswe package does;
# here it also holds when a test module imports numpy before lpswe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
