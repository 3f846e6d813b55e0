"""Frozen reference implementations the tier-1 suites compare the shipped code against."""
