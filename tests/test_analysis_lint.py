"""repro-lint: rule catalog, suppressions, reporters, CLI, repo self-check.

Every rule gets at least one positive fixture (the violation fires) and one
negative fixture (idiomatic code stays clean), plus role-scoping checks —
e.g. wall-clock reads are legal in the bench harness but not in library
code.  The final test lints the actual repository, which is the same gate
CI runs: the tree must be clean at HEAD.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Violation,
    all_project_rules,
    all_rules,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.visitor import infer_role

REPO_ROOT = Path(__file__).resolve().parent.parent


def rules_of(findings):
    return [v.rule for v in findings]


# ----------------------------------------------------------------------
# module-rng
# ----------------------------------------------------------------------
class TestModuleRng:
    def test_random_module_call_flagged(self):
        src = "import random\nrandom.shuffle(order)\n"
        assert rules_of(lint_source(src)) == ["module-rng"]

    def test_np_random_global_flagged(self):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert rules_of(lint_source(src)) == ["module-rng"]

    def test_from_import_alias_flagged(self):
        src = "from random import shuffle as sh\nsh(order)\n"
        assert rules_of(lint_source(src)) == ["module-rng"]

    def test_numpy_random_submodule_alias_flagged(self):
        src = "from numpy import random\nrandom.normal(0, 1)\n"
        assert rules_of(lint_source(src)) == ["module-rng"]

    def test_default_rng_constructor_allowed(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.shuffle(order)\n"
        )
        assert lint_source(src) == []

    def test_unrelated_module_not_resolved(self):
        src = "import mylib\nmylib.random(3)\n"
        assert lint_source(src) == []

    def test_exempt_in_bench_role(self):
        src = "import random\nrandom.shuffle(order)\n"
        assert lint_source(src, role="bench") == []


# ----------------------------------------------------------------------
# wall-clock
# ----------------------------------------------------------------------
class TestWallClock:
    def test_perf_counter_flagged(self):
        src = "import time\nt = time.perf_counter()\n"
        assert rules_of(lint_source(src)) == ["wall-clock"]

    def test_from_import_flagged(self):
        src = "from time import monotonic\nt = monotonic()\n"
        assert rules_of(lint_source(src)) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nstamp = datetime.now()\n"
        assert rules_of(lint_source(src)) == ["wall-clock"]

    def test_bench_role_exempt(self):
        src = "import time\nt = time.perf_counter()\n"
        assert lint_source(src, role="bench") == []

    def test_virtual_time_untouched(self):
        src = "t = queue.now\nother = engine.now\n"
        assert lint_source(src) == []


# ----------------------------------------------------------------------
# csr-mutation
# ----------------------------------------------------------------------
class TestCsrMutation:
    def test_subscript_write_through_view(self):
        src = "view = graph.csr()\nview.weights[0] = 1.0\n"
        assert rules_of(lint_source(src)) == ["csr-mutation"]

    def test_augassign_through_view(self):
        src = "view = graph.csr_in()\nview.indices[i] += 1\n"
        assert rules_of(lint_source(src)) == ["csr-mutation"]

    def test_direct_chained_write(self):
        src = "graph.csr().weights[:] = 0.0\n"
        assert rules_of(lint_source(src)) == ["csr-mutation"]

    def test_tuple_unpacked_arrays_tracked(self):
        src = (
            "indptr, indices, weights = graph.csr()\n"
            "weights.sort()\n"
        )
        assert rules_of(lint_source(src)) == ["csr-mutation"]

    def test_write_to_cached_degree(self):
        src = "view = graph.csr()\nview.degree[v] -= 1\n"
        assert rules_of(lint_source(src)) == ["csr-mutation"]

    def test_mutator_method_on_view_array(self):
        src = "view = g.csr()\nview.weights.fill(0.0)\n"
        assert rules_of(lint_source(src)) == ["csr-mutation"]

    def test_copy_before_mutation_allowed(self):
        src = (
            "view = graph.csr()\n"
            "weights = view.weights.copy()\n"
            "weights[0] = 1.0\n"
        )
        assert lint_source(src) == []

    def test_reads_allowed(self):
        src = (
            "view = graph.csr()\n"
            "deg = view.indptr[v + 1] - view.indptr[v]\n"
            "targets = view.indices[lo:hi]\n"
        )
        assert lint_source(src) == []

    def test_nested_function_inherits_bindings(self):
        src = (
            "view = graph.csr()\n"
            "def inner():\n"
            "    view.weights[0] = 1.0\n"
        )
        assert rules_of(lint_source(src)) == ["csr-mutation"]


# ----------------------------------------------------------------------
# bare-assert / mutable-default
# ----------------------------------------------------------------------
class TestBareAssertAndDefaults:
    def test_assert_flagged_in_src(self):
        src = "def f(x):\n    assert x > 0\n"
        assert rules_of(lint_source(src)) == ["bare-assert"]

    def test_assert_fine_in_tests(self):
        src = "def test_f():\n    assert 1 + 1 == 2\n"
        assert lint_source(src, role="tests") == []

    def test_mutable_default_list(self):
        src = "def f(items=[]):\n    return items\n"
        assert rules_of(lint_source(src)) == ["mutable-default"]

    def test_mutable_default_factory_call(self):
        src = "def f(cache=dict()):\n    return cache\n"
        assert rules_of(lint_source(src)) == ["mutable-default"]

    def test_mutable_default_flagged_in_tests_too(self):
        src = "def helper(acc=[]):\n    return acc\n"
        assert rules_of(lint_source(src, role="tests")) == ["mutable-default"]

    def test_none_default_allowed(self):
        src = "def f(items=None):\n    return items or []\n"
        assert lint_source(src) == []


# ----------------------------------------------------------------------
# unordered-iteration
# ----------------------------------------------------------------------
class TestUnorderedIteration:
    def test_set_literal_feeding_schedule(self):
        src = (
            "for w in {1, 2, 3}:\n"
            "    queue.schedule(now, 'compute', w)\n"
        )
        assert rules_of(lint_source(src)) == ["unordered-iteration"]

    def test_annotated_set_attribute_flagged(self):
        src = (
            "from typing import Set\n"
            "class Engine:\n"
            "    def __init__(self) -> None:\n"
            "        self.involved: Set[int] = set()\n"
            "    def kick(self, now: float) -> None:\n"
            "        for w in self.involved:\n"
            "            self.queue.schedule(now, 'compute', w)\n"
        )
        assert "unordered-iteration" in rules_of(lint_source(src))

    def test_sorted_iteration_allowed(self):
        src = (
            "for w in sorted({1, 2, 3}):\n"
            "    queue.schedule(now, 'compute', w)\n"
        )
        assert lint_source(src) == []

    def test_set_loop_without_event_submission_allowed(self):
        src = "total = 0\nfor w in {1, 2, 3}:\n    total += w\n"
        assert lint_source(src) == []


# ----------------------------------------------------------------------
# shadow-builtin
# ----------------------------------------------------------------------
class TestShadowBuiltin:
    def test_assignment_shadow_flagged(self):
        src = "id = compute_id()\n"
        assert rules_of(lint_source(src)) == ["shadow-builtin"]

    def test_parameter_shadow_flagged(self):
        src = "def f(type):\n    return type\n"
        assert rules_of(lint_source(src)) == ["shadow-builtin"]

    def test_ordinary_names_allowed(self):
        src = "query_id = 7\ndef f(kind):\n    return kind\n"
        assert lint_source(src) == []


# ----------------------------------------------------------------------
# swallowed-error
# ----------------------------------------------------------------------
class TestSwallowedError:
    def test_bare_except_pass_flagged(self):
        src = "try:\n    work()\nexcept:\n    pass\n"
        assert rules_of(lint_source(src)) == ["swallowed-error"]

    def test_except_exception_pass_flagged(self):
        src = "try:\n    work()\nexcept Exception:\n    pass\n"
        assert rules_of(lint_source(src)) == ["swallowed-error"]

    def test_tuple_containing_exception_flagged(self):
        src = "try:\n    work()\nexcept (KeyError, Exception):\n    pass\n"
        assert rules_of(lint_source(src)) == ["swallowed-error"]

    def test_docstring_and_ellipsis_body_flagged(self):
        src = (
            "try:\n"
            "    work()\n"
            "except BaseException:\n"
            "    '''nothing to do'''\n"
            "    ...\n"
        )
        assert rules_of(lint_source(src)) == ["swallowed-error"]

    def test_narrow_handler_allowed(self):
        src = "try:\n    work()\nexcept KeyError:\n    pass\n"
        assert lint_source(src) == []

    def test_broad_handler_with_real_handling_allowed(self):
        src = (
            "try:\n"
            "    work()\n"
            "except Exception:\n"
            "    failures += 1\n"
            "    raise\n"
        )
        assert lint_source(src) == []

    def test_tests_role_exempt(self):
        src = "try:\n    work()\nexcept Exception:\n    pass\n"
        assert lint_source(src, role="tests") == []


# ----------------------------------------------------------------------
# untyped-def
# ----------------------------------------------------------------------
class TestUntypedDef:
    def test_missing_annotations_in_typed_package(self):
        src = "def f(x, y):\n    return x + y\n"
        findings = lint_source(src, path="src/repro/engine/foo.py")
        assert rules_of(findings) == ["untyped-def"]
        assert "x, y, return" in findings[0].message

    def test_self_exempt(self):
        src = (
            "class C:\n"
            "    def method(self, x: int) -> int:\n"
            "        return x\n"
        )
        assert lint_source(src, path="src/repro/core/foo.py") == []

    def test_fully_annotated_clean(self):
        src = "def f(x: int, y: int) -> int:\n    return x + y\n"
        assert lint_source(src, path="src/repro/engine/foo.py") == []

    def test_packages_outside_gate_exempt(self):
        src = "def f(x, y):\n    return x + y\n"
        assert lint_source(src, path="src/repro/workload/foo.py") == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_line_suppression_with_reason(self):
        src = (
            "import time\n"
            "t = time.perf_counter()  "
            "# repro-lint: disable=wall-clock -- opt-in budget knob\n"
        )
        assert lint_source(src) == []

    def test_suppression_without_reason_is_itself_flagged(self):
        # the marker is concatenated so this fixture doesn't read as a real
        # (malformed) suppression when the repo lints its own test files
        src = (
            "import time\n"
            "t = time.perf_counter()  # repro-"
            + "lint: disable=wall-clock\n"
        )
        assert sorted(rules_of(lint_source(src))) == [
            "suppression-format",
            "wall-clock",
        ]

    def test_file_suppression(self):
        src = (
            "# repro-lint: disable-file=bare-assert -- legacy module, "
            "tracked in ISSUE 7\n"
            "def f(x):\n"
            "    assert x\n"
            "    assert x > 1\n"
        )
        assert lint_source(src) == []

    def test_disable_all_on_line(self):
        src = (
            "import time\n"
            "assert time.time()  # repro-lint: disable=all -- fixture\n"
        )
        assert lint_source(src) == []

    def test_suppression_only_covers_its_line(self):
        src = (
            "import time\n"
            "a = time.time()  # repro-lint: disable=wall-clock -- fixture\n"
            "b = time.time()\n"
        )
        findings = lint_source(src)
        assert rules_of(findings) == ["wall-clock"]
        assert findings[0].line == 3

    def test_suppressing_other_rule_does_not_hide(self):
        src = (
            "import time\n"
            "t = time.time()  # repro-lint: disable=bare-assert -- wrong rule\n"
        )
        assert rules_of(lint_source(src)) == ["wall-clock"]


# ----------------------------------------------------------------------
# framework: roles, select, reporters
# ----------------------------------------------------------------------
class TestFramework:
    def test_role_inference(self):
        assert infer_role(Path("tests/test_engine_basics.py")) == "tests"
        assert infer_role(Path("test_something.py")) == "tests"
        assert infer_role(Path("benchmarks/bench_engine.py")) == "bench"
        assert infer_role(Path("examples/demo.py")) == "bench"
        assert infer_role(Path("src/repro/bench/harness.py")) == "bench"
        assert infer_role(Path("src/repro/engine/engine.py")) == "src"

    def test_select_restricts_rules(self):
        src = "import time\nassert time.time()\n"
        only_assert = lint_source(src, select=["bare-assert"])
        assert rules_of(only_assert) == ["bare-assert"]

    def test_catalog_is_complete(self):
        names = set(all_rules())
        assert names == {
            "module-rng",
            "wall-clock",
            "csr-mutation",
            "bare-assert",
            "mutable-default",
            "unordered-iteration",
            "shadow-builtin",
            "swallowed-error",
            "untyped-def",
        }
        for rule in all_rules().values():
            assert rule.description
        # the whole-program registry is separate and must never collide
        # with a per-file rule name (the CLI catalog is their union)
        assert not names & set(all_project_rules())

    def test_violations_sorted_by_location(self):
        src = "import time\nb = time.time()\na = time.time()\n"
        findings = lint_source(src)
        assert [v.line for v in findings] == [2, 3]

    def test_render_text_clean_and_dirty(self):
        assert render_text([]) == "repro-lint: clean"
        v = Violation("wall-clock", "a.py", 3, 0, "boom")
        out = render_text([v, v])
        assert "a.py:3:0: wall-clock: boom" in out
        assert "2 violation(s) (wall-clock: 2)" in out

    def test_render_json_summary(self):
        v = Violation("bare-assert", "a.py", 1, 4, "boom")
        payload = json.loads(render_json([v]))
        assert payload["summary"] == {"total": 1, "by_rule": {"bare-assert": 1}}
        assert payload["violations"][0]["path"] == "a.py"
        assert json.loads(render_json([])) == {
            "violations": [],
            "summary": {"total": 0, "by_rule": {}},
        }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out and "untyped-def" in out

    def test_dirty_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "mod.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nt = time.time()\n")
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "mod.py"
        good.write_text("x = 1\n")
        assert lint_main([str(good)]) == 0
        assert "repro-lint: clean" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "mod.py"
        bad.write_text("def f(items=[]):\n    return items\n")
        assert lint_main(["--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["by_rule"] == {"mutable-default": 1}

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        good = tmp_path / "mod.py"
        good.write_text("x = 1\n")
        assert lint_main(["--select", "no-such-rule", str(good)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "absent.py")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_select_filters(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text("import time\nt = time.time()\n")
        assert lint_main(["--select", "bare-assert", str(bad)]) == 0


# ----------------------------------------------------------------------
# the repository itself must be clean (the CI gate)
# ----------------------------------------------------------------------
def test_repository_is_lint_clean():
    findings = lint_paths(
        [
            REPO_ROOT / "src",
            REPO_ROOT / "tests",
            REPO_ROOT / "benchmarks",
            REPO_ROOT / "examples",
        ],
        root=REPO_ROOT,
    )
    assert findings == [], render_text(findings)
