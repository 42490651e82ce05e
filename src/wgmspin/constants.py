"""Physical constants (SI). Natural-unit output (hbar = c = 1) is a display
choice: the CLI computes in SI and divides each rate by C_LIGHT."""

HBAR = 1.054571817e-34   # J s
C_LIGHT = 299792458.0    # m / s
