# Tier-1 verify path: `make verify` is what CI and pre-merge checks run.
# `dune build @runtest` both builds and executes the whole test suite,
# including the 2-domain smoke campaign (test/smoke.ml) that exercises the
# parallel Monte-Carlo engine end to end.

.PHONY: all build test smoke bench perf-check verify fmt-check clean

all: build

build:
	dune build

test:
	dune build @runtest

smoke:
	dune exec test/smoke.exe

bench:
	dune exec bench/main.exe -- dse

# Perf ratchet: rerun the bench behind every *committed* BENCH_*.json
# and compare fresh against baseline (median-normalized, >15% regression
# fails).  The bench name is the file name minus the BENCH_/.json
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
