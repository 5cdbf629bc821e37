"""qsid: exact q-series identity verification and partition bijection auditing.

The package has four layers, each imported from its own module; the
package re-exports nothing, so a layer loads only the layers it uses:

- ``series``: exact truncated power series in a, b, t, q over the
  rationals, stored as packed q-rows (one big integer per (a, b, t) row),
  with one-pass binomial factors, q-shifted-factorial constructors and
  substitutions.
- ``identities``: builders for both sides of every cataloged identity,
  the case table ``CASES`` (one entry per case) and ``run_case``, the one
  checker that compares the sides of an entry coefficient by coefficient.
- ``partitions`` / ``bijections``: brute-force partition enumeration (the
  independent oracle, which imports no series code beyond its error type;
  the catalog case ``eq3_1_partitions`` checks a series side against it)
  plus the subtract-and-mark map and 2-modular conjugation with an
  exhaustive finite-box audit.
- ``cli``: the ``qsid`` command with machine-readable reports.
"""

__version__ = "0.1.0"
