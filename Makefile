# Convenience targets for the reproduction repository.

.PHONY: install test test-fast coverage typecheck bench examples experiments clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

# The quick loop: everything except @pytest.mark.slow (property sweeps,
# experiment end-to-ends).  Target budget: ~30s.
test-fast:
	pytest tests/ -m "not slow"

# Full suite under coverage.py with the CI line floor; needs the dev
# extras (pip install -e .[dev]) for pytest-cov.
coverage:
	pytest tests/ --cov=repro --cov-report=term --cov-report=xml --cov-fail-under=85

# Strict typing gate: mypy when installed, stdlib annotation gate otherwise.
typecheck:
	python scripts/typecheck.py

bench:
	pytest benchmarks/ --benchmark-only

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex || exit 1; done

experiments:
	repro experiment all --quick --report experiment_report.md

clean:
	rm -rf benchmarks/results .pytest_cache build *.egg-info experiment_report.md
