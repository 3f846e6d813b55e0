"""The end-to-end benchmark behind ``BENCHMARK.json`` (see README.md)."""
