"""Tests of the benchmark's own code."""
