"""schism_bench: the repo's benchmark (see README.md in this directory)."""
