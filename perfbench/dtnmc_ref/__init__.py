"""A frozen copy of dtnmc's modules, for the benchmark's reference timings.

These files are the checker as it stood when the benchmark was defined, and
must never be edited.  An untraced run asks every query of both this copy and
the current `src/dtnmc` back to back, so that the host's speed at that moment
cancels out of their ratio (see perfbench/README.md).  The command-line module
is left out; every other module is byte-for-byte the original.
"""
