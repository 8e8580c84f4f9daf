# Convenience targets for the reproduction repository.

.PHONY: install test test-fast coverage lint typecheck bench bench-stream examples experiments clean

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

# Custom AST invariant analyzers (RL001, RL004, RL005) over code and docs.
lint:
	PYTHONPATH=src python -m repro.lint src tests docs README.md

# Strict typing gate: mypy when installed, stdlib annotation gate otherwise.
typecheck:
	python scripts/typecheck.py

bench:
	pytest benchmarks/ --benchmark-only

# Streaming-layer trajectory: chunked vs per-symbol ingestion for the
# online and sliding-window miners, written to BENCH_PR3.json.
bench-stream:
	PYTHONPATH=src python benchmarks/bench_streaming_regress.py --out BENCH_PR3.json

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex || exit 1; done

experiments:
	repro experiment all --quick --report experiment_report.md

clean:
	rm -rf benchmarks/results .pytest_cache build *.egg-info experiment_report.md
