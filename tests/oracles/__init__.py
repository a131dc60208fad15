"""Reference implementations that tests compare production kernels with."""
