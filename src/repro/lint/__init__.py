"""repro.lint — the stdlib annotation gate behind ``make typecheck``.

:mod:`repro.lint.annotations` requires complete signatures in the
strict modules when mypy is not installed (``scripts/typecheck.py``
picks which one runs).  The repository's structural invariants — engine
names in the docs match the registry, no mutable default arguments, no
bare ``except:`` — are tier-1 tests (``tests/test_invariants.py``).
"""
