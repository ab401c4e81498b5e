#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, release build, full test suite.
# Same sequence the CI workflow runs; keep the two in sync.
set -euo pipefail
cd "$(dirname "$0")/.."

# every crate must carry at least one test target (an integration test
# under tests/ or a #[test] in src) — a crate with zero tests slips
# through `cargo test` silently green
missing=()
for crate in crates/*/; do
    name=$(basename "$crate")
    if ! ls "$crate"tests/*.rs >/dev/null 2>&1 \
        && ! grep -rql '#\[test\]' "$crate"src; then
        missing+=("$name")
    fi
done
if ((${#missing[@]})); then
    echo "crates without any test target: ${missing[*]}" >&2
    exit 1
fi

# config discipline: every GNCG_* env read goes through gncg-config; a
# direct read anywhere else bypasses the documented parsing rules
if grep -rn --include='*.rs' -F 'env::var("GNCG_' src crates tests examples \
    | grep -v '^crates/config/src/'; then
    echo "direct GNCG_* env reads outside crates/config/src (use gncg_config::env)" >&2
    exit 1
fi

# model-selection discipline: GNCG_MODEL is parsed solely by gncg-config
# (env::model); any other mention of the quoted literal is a second
# parser waiting to drift
if grep -rn --include='*.rs' -F '"GNCG_MODEL"' src crates tests examples \
    | grep -v '^crates/config/src/'; then
    echo 'the "GNCG_MODEL" literal outside crates/config/src (use gncg_config)' >&2
    exit 1
fi

# serve-tier knob discipline: every GNCG_SERVE_* / GNCG_NET_FAULT_INJECT
# literal lives in crates/config/src; the serve tier and its tests go
# through gncg_config::env::serve() and the programmatic setters
# (netfault::set_probability etc.), so the env surface has one parser
if grep -rnE --include='*.rs' '"GNCG_(SERVE_[A-Z_]+|NET_FAULT_INJECT)"' src crates tests examples \
    | grep -v '^crates/config/src/'; then
    echo 'GNCG_SERVE_*/GNCG_NET_FAULT_INJECT literals outside crates/config/src' >&2
    exit 1
fi

# one reader per knob: the snapshot config struct, the env-selected
# evaluation backend and its bracket helper were removed because
# nothing read them; solver settings travel in SolverConfig only
if grep -rnE 'GncgConfig|EvalBackendKind|GNCG_EVAL_BACKEND|certify_bracket' \
    src crates tests examples tools | grep -v '^tools/ci.sh:.*grep -rnE'; then
    echo 'a removed config snapshot / eval-backend name is back (solver settings go in SolverConfig)' >&2
    exit 1
fi

# one route into each solver: the bracketed certifier's option struct
# and its tuned twin, the uncalled grid move engine and the retired
# dynamics speed-up harness are gone; settings reach solvers through
# SolverConfig
if grep -rnE 'ApproxCertifyOptions|certify_approx_tuned|approx_options|best_single_move_grid|bench_dynamics' \
    src crates tests examples tools .github README.md DESIGN.md \
    | grep -v '^tools/ci.sh:.*grep -rnE'; then
    echo 'a removed solver-settings route is back (use SolverConfig or an explicit argument)' >&2
    exit 1
fi

# certify only what the bracket reads: no gncg-game body builds a
# spanner (`gncg_spanner::build`) or measures a stretch (`cert::certify`,
# `stretch::stretch`: n Dijkstras on the spanner); the bracketed
# certifier reads the created network's rows and pivot rows only. Test
# code may build and measure spanners and docs may name them: each file
# is read up to its first `#[cfg(test)]`, comment lines and files that
# are test modules are skipped.
game_bodies() {
    local tests f
    tests=$(grep -rhA1 '^#\[cfg(test)\]' crates/game/src | sed -n 's/^mod \([a-z0-9_]*\);$/\1.rs/p' || true)
    for f in $(find crates/game/src -name '*.rs' | sort); do
        case " $(echo $tests) " in *" $(basename "$f") "*) continue ;; esac
        awk '/^ *#\[cfg\(test\)\]/ { exit } /^ *\/\// { next } { print FILENAME ":" FNR ": " $0 }' "$f"
    done
}
if game_bodies | grep -E '\b(cert::certify|stretch::stretch)\b|gncg_spanner::(\{[^}]*)?\bbuild'; then
    echo 'a gncg-game body builds a spanner or measures a stretch (certify from the created network alone)' >&2
    exit 1
fi

# pruning is not a setting: every solver runs the pruned engines, so
# the prune-mode type, its config setter and env knob, and the
# off-by-default delta-row switch of EvalContext are gone
if grep -rnE 'PruneMode|with_prune|GNCG_PRUNE|env::prune|prune_on|set_delta_updates' \
    src crates tests examples tools .github README.md DESIGN.md \
    | grep -v '^tools/ci.sh:.*grep -rnE'; then
    echo 'a removed prune setting is back (the pruned engines are the only production path)' >&2
    exit 1
fi

# one measurement artefact per tier: perf_smoke/perf_gate.sh gates the
# counters and stage times, perfbench/ the end-to-end metrics; the
# ungated micro-bench targets, their vendored harness crate and the
# gncg-bench re-export shim of gncg_sweep are gone
if grep -rnE 'criterion|\[\[bench\]\]|cargo bench|gncg_bench::(service|checkpoint)' \
    Cargo.toml Cargo.lock vendor src crates tests examples tools .github README.md DESIGN.md \
    | grep -v '^tools/ci.sh:.*grep -rnE'; then
    echo 'a retired bench harness or re-export path is back (measure with perf_smoke or perfbench; import gncg_sweep)' >&2
    exit 1
fi

# one named oracle: the unpruned engines in gncg_game::prune::oracle are
# called only inside gncg-game, from test files and by repro_maxdist's
# consistency row
if grep -rn --include='*.rs' 'prune::oracle' src crates tests examples \
    | grep -vE '^(crates/game/src/|crates/[^/]+/tests/|tests/|crates/bench/src/bin/repro_maxdist\.rs:)'; then
    echo 'prune::oracle called outside gncg-game, tests and repro_maxdist (production runs the pruned engines)' >&2
    exit 1
fi

# Session keeps only the job kinds some route reaches (certify,
# dynamics, sweep), and the public functions only their own tests
# called are gone
if grep -rnE 'submit_best_response|submit_exact_optimum|JobKind::(BestResponse|ExactOpt)|gaussian_clusters|random_tree_metric|hm_metric|build_on_subset' \
    src crates tests examples tools README.md DESIGN.md \
    | grep -v '^tools/ci.sh:.*grep -rnE'; then
    echo 'a removed job kind or test-only public function is back' >&2
    exit 1
fi

# no test-only public functions: every `pub fn` of src and crates/*/src
# must be named by production code (src, crates/*/src, examples,
# perfbench/src; each file read up to its first `#[cfg(test)]`, without
# comments and `#[cfg(test)] mod x;` files) other than its own
# definition, or be listed with its reason in tools/test_only_pub.txt;
# a listed name that production code now reaches must leave the list
prod_code() {
    local tests f
    tests=$(grep -rhA1 '^ *#\[cfg(test)\]' "$@" | sed -n 's/^ *mod \([a-z0-9_]*\);$/\1.rs/p' || true)
    for f in $(find "$@" -name '*.rs' | sort); do
        case " $(echo $tests) " in *" $(basename "$f") "*) continue ;; esac
        awk '/^ *#\[cfg\(test\)\]/ { exit } /^ *\/\// { next } { sub(/[ \t]\/\/ .*$/, ""); print }' "$f"
    done
}
pub_fns=$(prod_code src crates/*/src | grep -oE '\bpub (const |unsafe )?fn [a-z0-9_]+' | sed 's/.* //' | sort -u)
prod_names=$(prod_code src crates/*/src examples perfbench/src | sed -E 's/\bfn [a-z0-9_]+//g' \
    | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)
test_only=$(comm -23 <(echo "$pub_fns") <(echo "$prod_names"))
allowed=$(sed 's/#.*//' tools/test_only_pub.txt | tr -d ' \t' | grep -v '^$' | sort -u)
if [[ "$test_only" != "$allowed" ]]; then
    echo 'test-only public functions differ from tools/test_only_pub.txt:' >&2
    diff <(echo "$allowed") <(echo "$test_only") | grep '^[<>]' \
        | sed 's/^>/  unlisted (delete it or list it with a reason):/; s/^</  listed but reached by production code or gone:/' >&2
    exit 1
fi

# cache discipline: GNCG_CACHE_DIR / GNCG_CACHE are parsed solely by
# gncg-config (env::cache_dir / env::cache_on); tests and embedders
# steer the cache programmatically through
# gncg_service::cache::set_process_cache_dir, never by re-reading env
if grep -rn --include='*.rs' -F '"GNCG_CACHE' src crates tests examples \
    | grep -v '^crates/config/src/'; then
    echo 'GNCG_CACHE* literals outside crates/config/src (use gncg_config / set_process_cache_dir)' >&2
    exit 1
fi

# one entry point per computation: no deprecated shims, and no
# model / mode / prebuilt-graph / evaluator / legacy-options twin of a
# function (the model is a type parameter, the graph choice a
# `ResponseEvaluator` constructor); `with_*` builders are exempt
if grep -rnE --include='*.rs' '#\[(deprecated|allow\(deprecated\))' src crates tests examples; then
    echo '#[deprecated] shims (delete them; callers use the one entry point)' >&2
    exit 1
fi
if grep -rnE --include='*.rs' \
    'pub(\(crate\))? fn [a-z0-9_]*(_model|_mode|_with_options|_with_spec|_with_game_spec)\b|pub(\(crate\))? fn [a-z0-9_]*(_in_graph|_with_eval|_from_eval|_with_now)' \
    src crates tests examples | grep -vE 'fn with_'; then
    echo 'suffixed twin of a public function (use the generic one)' >&2
    exit 1
fi

# one shortest-path kernel: production code outside gncg-graph queries
# the CSR kernel (`Csr::dijkstra_*`), never the adjacency-list oracle in
# `dijkstra.rs` (test modules may import it as their reference), and no
# crate grows a relaxation loop of its own
if grep -rnE --include='*.rs' '^use gncg_graph::[^;]*dijkstra|gncg_graph::dijkstra::' src crates \
    | grep -E '^(src|crates/[^/]+/src)/' | grep -v '^crates/graph/'; then
    echo 'gncg_graph::dijkstra (the oracle) used outside crates/graph (use gncg_graph::csr::Csr)' >&2
    exit 1
fi
if grep -rnE --include='*.rs' 'heap\.pop\(\)' src crates tests examples \
    | grep -vE '^crates/graph/src/(csr|delta|dijkstra|heap4|mst)\.rs:'; then
    echo 'a heap.pop() relaxation loop outside the gncg-graph kernels' >&2
    exit 1
fi

cargo fmt --all -- --check
# `-D deprecated` on top of `-D warnings`: no workspace member may use a
# deprecated item
cargo clippy --workspace --all-targets -- -D warnings -D deprecated
cargo build --release --workspace
cargo test --workspace -q

# fault-injection soak: run the suite with panics injected at 2% of
# parallel chunk/job boundaries — proves panic isolation (no hangs, no
# lost jobs, unchanged results)
GNCG_FAULT_INJECT=0.02 cargo test --workspace -q

# sequential run: all parallel substrates on their 1-thread fallback
# paths must produce identical results
GNCG_THREADS=1 cargo test --workspace -q

# thread-count invariance of the approximate pipeline (cone spanners,
# run_approx, certify_approx) on the parallel path: four workers even
# on a single-core runner, once plain and once with chunk retries
GNCG_THREADS=4 cargo test --release -p gncg-game --test thread_invariance -q
GNCG_THREADS=4 GNCG_FAULT_INJECT=0.02 cargo test --release -p gncg-game --test thread_invariance -q
