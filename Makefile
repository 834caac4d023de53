# Convenience targets for the Fireworks reproduction.

.PHONY: install test report examples serve serve-smoke all clean

install:
	python setup.py develop

test:
	pytest tests/

report:
	python -m repro figure paper-repro

serve:
	python -m repro serve

serve-smoke:
	python tools/validate_scenarios.py
	python tools/serve_smoke.py

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex =="; \
		python $$ex > /dev/null && echo ok || exit 1; \
	done

all: test

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
