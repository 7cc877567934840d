"""Image file writers: real PNG files and binary PPM, dependency-free."""
