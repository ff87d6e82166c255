"""triqrng: tri-type quantum RNG post-processing stack.

A simulated dual-quadrature homodyne entropy source drives min-entropy
certification and three extraction pipelines (uniform, Gaussian,
Rayleigh), with statistical validation, a streaming CLI, and a local
bit-serving HTTP endpoint.

Importing the package loads none of its modules: import each name from
the module that defines it, for example
``from triqrng.pipeline import Pipeline``.
"""

__version__ = "0.1.0"
