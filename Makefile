# Convenience wrappers around dune. `make check` is the tier-1 gate:
# everything must build and every test suite must pass. Formatting is
# checked only when ocamlformat is installed (the CI container does not
# ship it; .ocamlformat pins the version for environments that do).

.PHONY: all build test fmt fmt-check check crashsweep gates faultsweep bench demo loc clean

all: build

build:
	dune build

test:
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; \
	then dune build @fmt --auto-promote; \
	else echo "ocamlformat not installed; skipping fmt"; fi

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; \
	then dune build @fmt; \
	else echo "ocamlformat not installed; skipping fmt-check"; fi

check: build test fmt-check

# Exhaustive crash-point sweep over every structure (every boundary,
# clean + torn variants) plus a multi-client fault-fuzzer pass. The
# bounded version of the same sweep runs inside `make test`.
crashsweep:
	dune exec bin/asymnvm.exe -- check --structure all --ops 50
	dune exec bin/asymnvm.exe -- check --structure all --ops 5 --stride 1000 --fuzz 300

# The byte-identity gates: the smoke set, fig8, every experiment and the
# crash census, each regenerated into a *_ci file and compared with its
# committed baseline. The census baseline holds make's echoed command
# lines, so the sub-make must echo them and must not print directories.
gates:
	dune exec bench/main.exe -- smoke --json BENCH_ci.json
	cmp bench/baseline.json BENCH_ci.json
	dune exec bench/main.exe -- fig8 --json FIG8_ci.json
	cmp bench/fig8_baseline.json FIG8_ci.json
	dune exec bench/main.exe -- all --json ALL_ci.json
	cmp bench/all_baseline.json ALL_ci.json
	$(MAKE) --no-print-directory crashsweep > CRASHSWEEP_ci.txt
	cmp bench/crashsweep_baseline.txt CRASHSWEEP_ci.txt

# Transient-fault sweep: throughput, retry counts and read-back
# integrity versus verb drop rate (Naive and RCB B+Trees).
faultsweep:
	dune exec bench/main.exe -- faultsweep

bench:
	dune exec bench/main.exe -- all

demo:
	dune exec bin/asymnvm.exe -- demo

# Lines added, removed and net since revision BASE (default HEAD), from
# `git diff --numstat` against the working tree, per area: lib/ .ml,
# lib/ .mli, test/, bench/ and bin/. New files count once `git add`-ed.
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- lib test bench bin | awk ' \
	  $$1 == "-" { next } \
	  $$3 ~ /^lib\/.*\.ml$$/ { g = "lib .ml" } \
	  $$3 ~ /^lib\/.*\.mli$$/ { g = "lib .mli" } \
	  $$3 ~ /^lib\// && $$3 !~ /\.mli?$$/ { next } \
	  $$3 ~ /^test\// { g = "test" } \
	  $$3 ~ /^bench\// { g = "bench" } \
	  $$3 ~ /^bin\// { g = "bin" } \
	  { add[g] += $$1; del[g] += $$2 } \
	  END { \
	    printf "%-14s %7s %7s %7s\n", "area", "added", "removed", "net"; \
	    n = split("lib .ml,lib .mli,test,bench,bin", order, ","); \
	    for (i = 1; i <= n; i++) { k = order[i]; \
	      printf "%-14s %7d %7d %+7d\n", k, add[k], del[k], add[k] - del[k] } \
	    a = add["lib .ml"] + add["lib .mli"]; d = del["lib .ml"] + del["lib .mli"]; \
	    printf "%-14s %7d %7d %+7d\n", "lib total", a, d, a - d }'

clean:
	dune clean
