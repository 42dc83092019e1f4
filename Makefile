# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench bench-csv bench-json host-profile promote-golden trace-snapshot fuzz fuzz-distill examples clean loc

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-csv:
	dune exec bench/main.exe -- --csv results

# machine-readable baseline: the headline experiment and the ADPTG guard
bench-json:
	dune exec bench/main.exe -- E1 ADPTG --json BENCH_mssp.json

# where the simulator's host time goes: PC samples (every 250 us) over
# the E1 grid's 52 machine runs, as markdown tables of the top functions
# and the per-module shares (tools/hostprof; one kernel with
# `dune exec tools/hostprof/hostprof.exe -- --bench qsort`)
host-profile:
	@dune exec tools/hostprof/hostprof.exe

# regenerate test/golden/*.trace from the current machine (review the
# diff before committing: goldens exist to make event-stream changes
# deliberate)
promote-golden:
	PROMOTE_GOLDEN=1 dune exec test/test_trace.exe -- test golden

# the JSONL event stream of every `mssp_sim list` benchmark at 1, 2, 4
# and 8 slaves. Without OUT it prints one `sha256sum` line per stream
# (named <bench>-s<N>.jsonl) and writes nothing: CI diffs the lines
# against test/snapshot.sums to show a refactor moved no event. With
# OUT=dir it writes the streams into dir, with their sums in
# dir/SHA256SUMS, for triage of a stream that moved. A failed run
# digests a FAILED line instead of its stream, so it shows as moved.
SIM = ./_build/default/bin/mssp_sim.exe
trace-snapshot:
	@dune build bin/mssp_sim.exe
	@if [ -n "$(OUT)" ]; then mkdir -p $(OUT); fi
	@for b in $$($(SIM) list | cut -d' ' -f1); do \
	  for n in 1 2 4 8; do \
	    if [ -z "$(OUT)" ]; then \
	      { $(SIM) trace $$b --slaves $$n --format jsonl || echo FAILED; } \
	        | sha256sum | sed "s/ -\$$/ $$b-s$$n.jsonl/"; \
	    else \
	      $(SIM) trace $$b --slaves $$n --format jsonl -o $(OUT)/$$b-s$$n.jsonl || exit 1; \
	    fi; \
	  done; \
	done
	@if [ -n "$(OUT)" ]; then cd $(OUT) && sha256sum *.jsonl > SHA256SUMS; fi

# differential fuzzing: SEQ vs MSSP config grid vs formal models.
# Failing programs are shrunk and written to fuzz/corpus/ as .s repros.
# JOBS worker domains run independently seeded shards; every parallel
# finding prints its exact --jobs 1 replay line.
fuzz:
	dune exec -- mssp_sim fuzz --seed $${SEED:-1} --count $${COUNT:-500} --jobs $${JOBS:-4} --out fuzz/corpus

# the pass-subset axis: each program judged on the distiller grid (empty
# pipeline, every pass alone, a random valid subset — pass-checker on);
# failing subset points dump per-pass diff artifacts to _distill_failures/
fuzz-distill:
	dune exec -- mssp_sim fuzz --distill-grid --seed $${SEED:-1} --count $${COUNT:-300} --jobs $${JOBS:-4} --out fuzz/corpus

examples:
	dune exec examples/quickstart.exe
	dune exec examples/distillation_tour.exe
	dune exec examples/formal_refinement.exe
	dune exec examples/pipeline_sweep.exe
	dune exec examples/adversarial_master.exe
	dune exec examples/compile_and_speculate.exe

clean:
	dune clean

loc:
	@find . -name _build -prune -o -type f \( -name '*.ml' -o -name '*.mli' \) -print | xargs wc -l | tail -1
