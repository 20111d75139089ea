"""Harness for the EM-X simulator benchmark (see perfbench/README.md)."""
