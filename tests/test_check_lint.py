"""Tests for the repro.check static layer (the annotation linter)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check import (
    ERROR,
    RULES,
    WARNING,
    filter_findings,
    lint_file,
    lint_paths,
    lint_source,
    render_json,
    render_text,
)
from repro.check.cli import main as check_main

pytestmark = pytest.mark.check

REPO = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "misannotated.py"


def rules_of(findings):
    return [f.rule for f in findings]


def lint_snippet(body: str, **kwargs):
    return lint_source(
        "from repro.core.api import css_task\n" + body, "<snippet>", **kwargs
    )


# ---------------------------------------------------------------------------
# one test per rule code
# ---------------------------------------------------------------------------


class TestRules:
    def test_input_write(self):
        findings = lint_snippet(
            "@css_task('input(a) output(b)')\n"
            "def f(a, b):\n"
            "    a[0] = 1.0\n"
            "    b[:] = a\n"
        )
        assert rules_of(findings) == ["input-write"]
        f = findings[0]
        assert f.severity == ERROR
        assert f.task == "f"
        assert f.param == "a"
        assert f.line == 4  # the write site, not the def

    def test_input_write_augassign(self):
        findings = lint_snippet(
            "@css_task('input(a) output(b)')\n"
            "def f(a, b):\n"
            "    a += 1\n"
            "    b[:] = a\n"
        )
        assert rules_of(findings) == ["input-write"]

    def test_input_write_mutating_method(self):
        findings = lint_snippet(
            "@css_task('input(a) output(b)')\n"
            "def f(a, b):\n"
            "    a.sort()\n"
            "    b[:] = a\n"
        )
        assert rules_of(findings) == ["input-write"]

    def test_undeclared_mutation(self):
        findings = lint_snippet(
            "@css_task('input(a)')\n"
            "def f(a, scratch):\n"
            "    scratch[0] = a[0]\n"
        )
        assert rules_of(findings) == ["undeclared-mutation"]
        assert findings[0].param == "scratch"
        assert findings[0].severity == ERROR

    def test_unwritten_output(self):
        findings = lint_snippet(
            "@css_task('input(a) output(b)')\n"
            "def f(a, b):\n"
            "    return a.sum()\n"
        )
        assert rules_of(findings) == ["unwritten-output"]
        assert findings[0].param == "b"
        assert findings[0].severity == WARNING

    def test_unwritten_output_suppressed_by_escape(self):
        # b passed to an unknown call: it may be written there, so the
        # linter must stay quiet (zero-false-positive policy).
        findings = lint_snippet(
            "import numpy as np\n"
            "@css_task('input(a) output(b)')\n"
            "def f(a, b):\n"
            "    np.matmul(a, a, out=b)\n"
        )
        assert findings == []

    def test_read_before_write(self):
        findings = lint_snippet(
            "@css_task('input(a) output(c)')\n"
            "def f(a, c):\n"
            "    t = c[0]\n"
            "    c[0] = t + a[0]\n"
        )
        assert rules_of(findings) == ["read-before-write"]
        assert findings[0].param == "c"

    def test_read_before_write_not_for_inout(self):
        findings = lint_snippet(
            "@css_task('input(a) inout(c)')\n"
            "def f(a, c):\n"
            "    c += a\n"
        )
        assert findings == []

    def test_metadata_read_is_not_a_read(self):
        # a.shape[0] before the first write must not trip the rule
        # (get_block_t in the apps does exactly this).
        findings = lint_snippet(
            "@css_task('output(c) input(n)')\n"
            "def f(c, n):\n"
            "    m = c.shape[0]\n"
            "    c[:] = m * n\n"
        )
        assert findings == []

    def test_global_mutation(self):
        findings = lint_snippet(
            "STATE = [0]\n"
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    STATE[0] = a[0]\n"
        )
        assert rules_of(findings) == ["global-mutation"]
        assert findings[0].severity == WARNING

    def test_local_shadowing_is_fine(self):
        findings = lint_snippet(
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    buf = [0]\n"
            "    buf[0] = a[0]\n"
        )
        assert findings == []

    def test_unknown_region_name(self):
        findings = lint_snippet(
            "@css_task('output(v{0..K}) input(n)')\n"
            "def f(v, n):\n"
            "    v[:] = n\n"
        )
        assert rules_of(findings) == ["unknown-region-name"]
        assert findings[0].severity == ERROR

    def test_region_name_from_constants_kwarg(self):
        findings = lint_snippet(
            "@css_task('output(v{0..K}) input(n)', constants={'K': 7})\n"
            "def f(v, n):\n"
            "    v[:] = n\n"
        )
        assert findings == []

    def test_region_name_from_cli_constants(self):
        findings = lint_snippet(
            "@css_task('output(v{0..K}) input(n)')\n"
            "def f(v, n):\n"
            "    v[:] = n\n",
            constants=["K"],
        )
        assert findings == []

    def test_opaque_leak(self):
        findings = lint_snippet(
            "@css_task('input(src) output(dst)')\n"
            "def copy(src, dst):\n"
            "    dst[:] = src\n"
            "@css_task('opaque(h) output(dst)')\n"
            "def outer(h, dst):\n"
            "    copy(h, dst)\n"
        )
        assert rules_of(findings) == ["opaque-leak"]
        assert findings[0].param == "h"

    def test_opaque_to_opaque_is_fine(self):
        findings = lint_snippet(
            "@css_task('opaque(p) inout(x)')\n"
            "def inner(p, x):\n"
            "    x += 1\n"
            "@css_task('opaque(h) inout(x)')\n"
            "def outer(h, x):\n"
            "    inner(h, x)\n"
        )
        assert findings == []

    def test_bad_pragma_phantom_param(self):
        findings = lint_snippet(
            "@css_task('input(a) output(q)')\n"
            "def f(a, b):\n"
            "    b[:] = a\n"
        )
        assert "bad-pragma" in rules_of(findings)
        bad = [f for f in findings if f.rule == "bad-pragma"][0]
        assert "'q'" in bad.message
        assert bad.severity == ERROR

    def test_bad_pragma_unparsable(self):
        findings = lint_snippet(
            "@css_task('banana(a)')\n"
            "def f(a):\n"
            "    return a\n"
        )
        assert rules_of(findings) == ["bad-pragma"]

    def test_bad_pragma_comment_without_def(self):
        findings = lint_source(
            "# pragma css task input(a)\n"
            "x = 1\n",
            "<snippet>",
        )
        assert rules_of(findings) == ["bad-pragma"]
        assert findings[0].line == 1

    def test_comment_pragma_task_is_linted(self):
        findings = lint_source(
            "# pragma css task input(v)\n"
            "def negate(v):\n"
            "    v[:] = -v\n",
            "<snippet>",
        )
        assert rules_of(findings) == ["input-write"]
        assert findings[0].task == "negate"

    def test_syntax_error_is_one_bad_pragma(self):
        findings = lint_source("def f(:\n", "<snippet>")
        assert rules_of(findings) == ["bad-pragma"]


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


class TestSuppression:
    def test_on_finding_line(self):
        findings = lint_snippet(
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    a[0] = 1.0  # css: ignore[input-write]\n"
        )
        assert findings == []

    def test_bare_ignore_suppresses_all(self):
        findings = lint_snippet(
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    a[0] = 1.0  # css: ignore\n"
        )
        assert findings == []

    def test_wrong_rule_does_not_suppress(self):
        findings = lint_snippet(
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    a[0] = 1.0  # css: ignore[unwritten-output]\n"
        )
        assert rules_of(findings) == ["input-write"]

    def test_on_decorator_line_scopes_whole_task(self):
        findings = lint_snippet(
            "@css_task('input(a) output(b)')  # css: ignore[unwritten-output]\n"
            "def f(a, b):\n"
            "    return a.sum()\n"
        )
        assert findings == []


# ---------------------------------------------------------------------------
# binding-form hardening: walrus, match patterns, starred targets
# ---------------------------------------------------------------------------


class TestBindingForms:
    def test_walrus_rebind_is_not_a_param_write(self):
        # `a := ...` rebinds the local name; the subsequent item write
        # lands on the new object, not the input argument.
        findings = lint_snippet(
            "@css_task('input(a) input(n)')\n"
            "def f(a, n):\n"
            "    if (a := n * 2):\n"
            "        a[0] = 1.0\n"
        )
        assert findings == []

    def test_walrus_rebind_of_output_never_reaches_caller(self):
        findings = lint_snippet(
            "@css_task('output(b) input(n)')\n"
            "def f(b, n):\n"
            "    if (b := n * 2) > 0:\n"
            "        pass\n"
        )
        assert rules_of(findings) == ["unwritten-output"]

    def test_match_captures_are_locals(self):
        # MatchAs/MatchStar/MatchMapping captures bind without a
        # Name/Store node; mutating them must not look like a write to
        # an undeclared global.
        findings = lint_snippet(
            "@css_task('input(x)')\n"
            "def f(x):\n"
            "    match x:\n"
            "        case [head, *tail]:\n"
            "            tail.append(head)\n"
            "        case {**rest}:\n"
            "            rest['k'] = 1\n"
        )
        assert findings == []

    def test_starred_target_rebinds_param(self):
        findings = lint_snippet(
            "@css_task('inout(a) input(xs)')\n"
            "def f(a, xs):\n"
            "    first, *a = xs\n"
            "    a[0] = 1\n"
        )
        assert findings == []

    def test_starred_assignment_binds_local(self):
        findings = lint_snippet(
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    *rest, last = a\n"
            "    rest.append(last)\n"
        )
        assert findings == []

    def test_starred_call_argument_still_read(self):
        findings = lint_snippet(
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    print(*a)\n"
        )
        assert findings == []

    def test_plain_input_write_still_fires(self):
        # The hardening must not swallow the plain case.
        findings = lint_snippet(
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    a[0] = 1.0\n"
        )
        assert rules_of(findings) == ["input-write"]

    def test_continuation_line_suppression(self):
        # A suppression on a pragma-block continuation line scopes the
        # whole task, same as on the pragma line itself.
        findings = lint_source(
            "import numpy as np\n"
            "# pragma css task input(a) \\\n"
            "#   output(b)  # css: ignore[unwritten-output]\n"
            "def f(a, b):\n"
            "    return a.sum()\n",
            "<s>",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# fixture + corpus
# ---------------------------------------------------------------------------


EXPECTED_FIXTURE_RULES = {
    "input-write": 2,          # decorator + comment-pragma variants
    "undeclared-mutation": 2,  # sneaky_scratch + phantom_param's b
    "unwritten-output": 1,
    "read-before-write": 1,
    "global-mutation": 1,
    "unknown-region-name": 1,
    "opaque-leak": 1,
    "bad-pragma": 1,
}


class TestFixture:
    def test_every_rule_detected(self):
        findings = lint_file(FIXTURE)
        counts: dict[str, int] = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        assert counts == EXPECTED_FIXTURE_RULES
        # Every per-task rule is seeded; the whole-program flow-* rules
        # have their own fixture (misflowed.py, tests/test_check_flow.py).
        assert set(counts) == {r for r in RULES if not r.startswith("flow-")}

    def test_clean_controls_stay_clean(self):
        findings = lint_file(FIXTURE)
        assert not any(f.task in ("ok_task", "suppressed_write", "copy_vec")
                       for f in findings)

    def test_findings_carry_locations(self):
        for f in lint_file(FIXTURE):
            assert f.file.endswith("misannotated.py")
            assert f.line > 0


class TestCorpusIsClean:
    """Zero false positives over the repo's own tasks (satellite 2)."""

    def test_apps_and_examples(self):
        findings = lint_paths(
            [REPO / "src" / "repro" / "apps", REPO / "examples"]
        )
        assert findings == [], render_text(findings)


# ---------------------------------------------------------------------------
# reporters + CLI
# ---------------------------------------------------------------------------


class TestReporters:
    def _findings(self):
        return lint_snippet(
            "@css_task('input(a)')\n"
            "def f(a):\n"
            "    a[0] = 1.0\n"
        )

    def test_render_text(self):
        text = render_text(self._findings())
        assert "input-write" in text
        assert "1 error(s)" in text

    def test_render_json(self):
        doc = json.loads(render_json(self._findings()))
        assert doc["counts"] == {"total": 1, "errors": 1}
        (entry,) = doc["findings"]
        assert entry["rule"] == "input-write"
        assert entry["task"] == "f"
        assert entry["line"] == 4

    def test_filter_select_and_ignore(self):
        findings = lint_file(FIXTURE)
        only = filter_findings(findings, select=["bad-pragma"])
        assert rules_of(only) == ["bad-pragma"]
        dropped = filter_findings(findings, ignore=["bad-pragma"])
        assert "bad-pragma" not in rules_of(dropped)


class TestCli:
    def test_exit_zero_when_clean(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text(
            "from repro.core.api import css_task\n"
            "@css_task('inout(c)')\n"
            "def f(c):\n"
            "    c += 1\n"
        )
        assert check_main(["lint", str(clean)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_findings(self, capsys):
        assert check_main(["lint", str(FIXTURE)]) == 1
        out = capsys.readouterr().out
        assert "input-write" in out

    def test_json_format(self, capsys):
        assert check_main(["lint", str(FIXTURE), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"]["total"] == sum(EXPECTED_FIXTURE_RULES.values())

    def test_select_filter(self, capsys):
        code = check_main(
            ["lint", str(FIXTURE), "--select", "unwritten-output"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "unwritten-output" in out
        assert "input-write" not in out

    def test_unknown_rule_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            check_main(["lint", str(FIXTURE), "--select", "no-such-rule"])
        assert exc.value.code == 2

    def test_missing_path_exits_two(self, capsys):
        assert check_main(["lint", "/no/such/file.py"]) == 2

    def test_rules_subcommand(self, capsys):
        assert check_main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out
