"""Whole-step benchmark: five workloads, pinned threads, a layer budget
measured from outside.  See README.md in this directory."""
