"""Shared utilities: seeded randomness and Zipfian sampling."""

from repro.utils.rng import SeededRng, ZipfianGenerator, ScrambledZipfianGenerator

__all__ = [
    "SeededRng",
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
]
