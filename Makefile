# Tier-1 verify path: `make verify` is what CI and pre-merge checks run.
# `dune build @runtest` both builds and executes the whole test suite,
# including the 2-domain smoke campaign (test/smoke.ml) that exercises the
# parallel Monte-Carlo engine end to end.

.PHONY: all build test smoke bench bench-smoke perf-check verify fmt-check clean

all: build

build:
	dune build

test:
	dune build @runtest

smoke:
	dune exec test/smoke.exe

bench:
	dune exec bench/main.exe -- dse

# Benchmark smoke: a short seeded run of every perfbench workload.  A
# run exits 2 when the build fails, when `serve` rejects a flag
# perfbench passes or exits early, or when the workload's request
# stream runs dry; its last line must also report every operation
# correct and none failed.
bench-smoke:
	@set -e; \
	for w in served_batch served_workers dse_campaign flow_10k; do \
	  echo "== bench smoke: $$w =="; \
	  if ! out=$$(python3 perfbench/run.py --workload $$w --seed 1 \
	      --seconds 3); then \
	    printf "%s\n" "$$out"; echo "bench-smoke: $$w exited non-zero"; exit 1; \
	  fi; \
	  last=$$(printf "%s\n" "$$out" | tail -n 1); \
	  echo "$$last"; \
	  case "$$last" in \
	    *'"correct": true'*'"failed": 0,'*) ;; \
	    *) echo "bench-smoke: $$w did not report a correct run"; exit 1 ;; \
	  esac; \
	done

# Perf ratchet: rerun the bench behind every *committed* BENCH_*.json
# and compare fresh against baseline (median-normalized, >15% regression
# fails; a row marked as a ratio of two timings is compared with its own
# baseline instead).  The bench name is the file name minus the BENCH_/.json
# wrapping, so committing a new ledger automatically adds it to the
# gate.  The dse bench also asserts adaptive-vs-exhaustive front
# equality and the <= 50% evaluation budget.
perf-check:
	@set -e; \
	for f in $$(git ls-files 'BENCH_*.json'); do \
	  name=$${f#BENCH_}; name=$${name%.json}; \
	  echo "== perf ratchet: $$name =="; \
	  git show HEAD:$$f > _bench_baseline.json; \
	  SCALE_SIZES=1000 dune exec bench/main.exe -- $$name; \
	  dune exec bench/check_regression.exe -- _bench_baseline.json $$f; \
	done; \
	rm -f _bench_baseline.json

# Formatting gate: uses ocamlformat via dune when installed; otherwise
# falls back to cheap hygiene checks (tabs and trailing whitespace in
# source files) so the target is meaningful on minimal toolchains too.
fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; checking whitespace hygiene"; \
	  ! grep -rnP '[ \t]+$$' --include='*.ml' --include='*.mli' \
	      lib bin test bench examples || \
	    { echo 'fmt-check: trailing whitespace found'; exit 1; }; \
	fi

verify: build test fmt-check

clean:
	dune clean
