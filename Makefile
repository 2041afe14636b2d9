PYTHON ?= python

.PHONY: install test bench bench-batch report examples faults obs recover serve gateway chaos adapt clean

install:
	$(PYTHON) -m pip install -e .[test] || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-batch:
	$(PYTHON) benchmarks/bench_batchexec.py --smoke --out /tmp/BENCH_batchexec.json

report:
	$(PYTHON) -m repro report --output EXPERIMENTS.md

faults:
	$(PYTHON) -m repro faults run --fields 8,8 --devices 8 --queries 100 \
		--fail 2 --error-rate 0.05 --replicate
	$(PYTHON) -m repro faults report --fields 8,8 --devices 8 --queries 20

obs:
	$(PYTHON) -m repro obs report --fields 2,2,2 --devices 8 --queries 50
	$(PYTHON) -m repro obs export --fields 2,2,2 --devices 8 --queries 50 \
		--deterministic-clock --validate --jsonl /tmp/obs_run.jsonl
	$(PYTHON) -m repro obs check --fields 2,2,2 --devices 8 --queries 50
	$(PYTHON) -m repro obs tail --fields 2,2,2 --devices 8 --queries 20 \
		--lines 10
	$(PYTHON) -m repro obs slo --fields 4,4 --devices 4 \
		--tenants alpha,beta --connections 2 --requests 15

recover:
	$(PYTHON) -m repro recover scrub --fields 4,4 --devices 8 \
		--records 200 --corruption-rate 0.05
	$(PYTHON) -m repro recover replay --fields 4,4 --devices 8 \
		--records 64 --all-offsets --torn-tail
	$(PYTHON) -m repro recover rebuild --fields 4,4 --devices 8 \
		--records 200 --lose 2 --queries 20

serve:
	$(PYTHON) -m repro serve --fields 8,8 --devices 8 --records 128 \
		--clients 8 --requests 40 --write-every 4 --hot-fraction 0.5 \
		--verify

gateway:
	$(PYTHON) -m repro gateway --fields 8,8 --devices 8 \
		--tenants alpha,beta --connections 4 --requests 25 \
		--write-every 5 --preload 16 --verify \
		--export-jsonl /tmp/gateway_trace.jsonl
	$(PYTHON) -m repro gateway --fields 8,8 --devices 8 \
		--tenants alpha,beta --connections 2 --requests 10 \
		--preload 4 --quota 20 --verify

chaos:
	$(PYTHON) -m repro chaos --fields 8,8 --devices 8 \
		--tenants alpha,beta --connections 2 --requests 12 \
		--fault-rate 0.06 --crash-at 0.5 --torn-tail
	$(PYTHON) benchmarks/bench_chaos.py --smoke --out /tmp/BENCH_chaos.json

adapt:
	$(PYTHON) -m repro adapt score --fields 2,2,2,2 --devices 16 \
		--mix "***1=50,**11=20,*1*1=15,1**1=15"
	$(PYTHON) -m repro adapt plan --fields 2,2,2,2 --devices 16 \
		--mix "***1=50,**11=20,*1*1=15,1**1=15"
	$(PYTHON) -m repro adapt apply --fields 2,2,2,2 --devices 16 \
		--mix "***1=50,**11=20,*1*1=15,1**1=15"
	$(PYTHON) benchmarks/bench_adaptive.py --smoke --out /tmp/BENCH_adaptive.json

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done; echo "all examples OK"

clean:
	rm -rf .pytest_cache build dist src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
