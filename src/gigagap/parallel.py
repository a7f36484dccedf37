"""Empty: the thread pool that once served the --threads option is gone.

Pricing runs in one thread, because a thread pool over the
interpreter-bound per-item work measured 3-4x slower, and nothing in
the package maps over a pool any more. The module stays so that code
which imports gigagap.parallel by name still finds it.
"""
