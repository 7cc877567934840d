"""Image file writer: real PNG files, dependency-free."""
