"""Home of :mod:`~repro.engine.remote.protocol`, the serve wire framing.

The package name is historical: it held a socket-worker backend, since
deleted.  The codec stays at this import path because the benchmark
harness in ``perfbench/`` imports it, and patches its codec functions,
here.
"""
