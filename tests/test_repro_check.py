"""repro-check linter tests: each RC rule, noqa, select, and CLI exit codes."""

import io
import pathlib
import re
import tokenize

import pytest

from repro.analysis.checker import check_paths, collect_files
from repro.analysis.cli import main
from repro.analysis.rules import (
    ANNOTATION_SCOPES,
    BLOCKING_SCOPE_FILES,
    DTYPE_REQUIRED_FUNCS,
    REGISTRY,
    package_relative,
)


def write(tmp_path, rel, source):
    """Write *source* at *rel* under tmp_path and return the file path."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def codes_in(tmp_path, rel, source):
    """Rule codes fired on one snippet placed at *rel*."""
    result = check_paths([write(tmp_path, rel, source)])
    return [v.rule for v in result.violations]


class TestPackageRelative:
    def test_inside_package(self, tmp_path):
        p = tmp_path / "src" / "repro" / "core" / "executor.py"
        assert package_relative(p) == "core/executor.py"

    def test_outside_package(self, tmp_path):
        assert package_relative(tmp_path / "tests" / "test_x.py") is None


class TestRC001UnseededRandom:
    def test_stdlib_random_import_fires(self, tmp_path):
        assert codes_in(tmp_path, "repro/seqs/gen.py", "import random\n") == ["RC001"]

    def test_from_random_import_fires(self, tmp_path):
        src = "from random import randint\n"
        assert codes_in(tmp_path, "repro/seqs/gen.py", src) == ["RC001"]

    def test_legacy_np_random_fires(self, tmp_path):
        src = "import numpy as np\nx = np.random.rand(4)\n"
        assert codes_in(tmp_path, "repro/seqs/gen.py", src) == ["RC001"]

    def test_unseeded_default_rng_fires(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert codes_in(tmp_path, "repro/seqs/gen.py", src) == ["RC001"]

    def test_seeded_default_rng_clean(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng(42)\n"
        assert codes_in(tmp_path, "repro/seqs/gen.py", src) == []

    def test_outside_package_exempt(self, tmp_path):
        assert codes_in(tmp_path, "scripts/demo.py", "import random\n") == []


class TestRC002ExplicitDtype:
    def test_hot_path_without_dtype_fires(self, tmp_path):
        src = "import numpy as np\nx = np.zeros(8)\n"
        assert codes_in(tmp_path, "repro/extend/k.py", src) == ["RC002"]

    def test_executor_is_hot_path(self, tmp_path):
        src = "import numpy as np\nx = np.arange(8)\n"
        assert codes_in(tmp_path, "repro/core/executor.py", src) == ["RC002"]

    def test_hot_path_with_dtype_clean(self, tmp_path):
        src = "import numpy as np\nx = np.zeros(8, dtype=np.int64)\n"
        assert codes_in(tmp_path, "repro/extend/k.py", src) == []

    def test_cold_path_exempt(self, tmp_path):
        src = "import numpy as np\nx = np.zeros(8)\n"
        assert codes_in(tmp_path, "repro/seqs/gen.py", src) == []

    def test_keyword_splat_may_carry_dtype(self, tmp_path):
        # dtype forwarded through **kwargs must not be flagged: the call
        # site cannot prove the dtype is absent.
        src = (
            "import numpy as np\n"
            "kw = {'dtype': np.int64}\n"
            "x = np.zeros(8, **kw)\n"
        )
        assert codes_in(tmp_path, "repro/extend/k.py", src) == []

    def test_covers_backend_constructors(self, tmp_path):
        # extend/backends/ is hot-path scope, and np.ones is in the
        # dtype-required constructor set.
        src = (
            "import numpy as np\n\n\n"
            "def make(n: int) -> np.ndarray:\n"
            "    return np.ones(n)\n"
        )
        assert codes_in(tmp_path, "repro/extend/backends/x.py", src) == ["RC002"]


class TestRC003MutableDefault:
    def test_list_literal_fires(self, tmp_path):
        assert codes_in(tmp_path, "anywhere.py", "def f(x=[]):\n    pass\n") == ["RC003"]

    def test_dict_call_fires(self, tmp_path):
        src = "def f(*, x=dict()):\n    pass\n"
        assert codes_in(tmp_path, "anywhere.py", src) == ["RC003"]

    def test_none_default_clean(self, tmp_path):
        assert codes_in(tmp_path, "anywhere.py", "def f(x=None):\n    pass\n") == []


class TestRC004WallClock:
    def test_time_time_call_fires(self, tmp_path):
        src = "import time\nt = time.time()\n"
        assert codes_in(tmp_path, "repro/core/profile.py", src) == ["RC004"]

    def test_from_time_import_time_fires(self, tmp_path):
        src = "from time import time\n"
        assert codes_in(tmp_path, "bench.py", src) == ["RC004"]

    # RC004-clean paths below avoid core/profile.py: it sits in RC105's
    # instrumented scope, where a direct perf_counter() call now fires.
    def test_perf_counter_clean(self, tmp_path):
        src = "import time\nt = time.perf_counter()\n"
        assert codes_in(tmp_path, "repro/core/results.py", src) == []

    def test_monotonic_clean(self, tmp_path):
        # time.monotonic() is as deadline-safe as perf_counter().
        src = "import time\nt = time.monotonic()\n"
        assert codes_in(tmp_path, "repro/core/results.py", src) == []

    def test_perf_counter_in_instrumented_module_fires_rc105(self, tmp_path):
        src = "import time\nt = time.perf_counter()\n"
        assert codes_in(tmp_path, "repro/core/profile.py", src) == ["RC105"]


class TestRC005PublicAnnotations:
    def test_unannotated_public_function_fires(self, tmp_path):
        src = "def score(a, b):\n    return a\n"
        assert codes_in(tmp_path, "repro/core/x.py", src) == ["RC005"]

    def test_missing_return_fires(self, tmp_path):
        src = "def score(a: int, b: int):\n    return a\n"
        assert codes_in(tmp_path, "repro/extend/x.py", src) == ["RC005"]

    def test_fully_annotated_clean(self, tmp_path):
        src = "def score(a: int, b: int) -> int:\n    return a\n"
        assert codes_in(tmp_path, "repro/index/x.py", src) == []

    def test_self_exempt_in_methods(self, tmp_path):
        src = "class C:\n    def __init__(self, x: int) -> None:\n        self.x = x\n"
        assert codes_in(tmp_path, "repro/core/x.py", src) == []

    def test_private_exempt(self, tmp_path):
        src = "def _helper(a):\n    return a\n"
        assert codes_in(tmp_path, "repro/core/x.py", src) == []

    def test_outside_scope_exempt(self, tmp_path):
        src = "def score(a, b):\n    return a\n"
        assert codes_in(tmp_path, "repro/seqs/x.py", src) == []

    def test_covers_backend_signatures(self, tmp_path):
        src = "def make(config):\n    return None\n"
        assert codes_in(tmp_path, "repro/extend/backends/x.py", src) == ["RC005"]


class TestSuppressionAndSelect:
    def test_noqa_with_code_suppresses(self, tmp_path):
        src = "import numpy as np\nx = np.zeros(8)  # noqa: RC002\n"
        assert codes_in(tmp_path, "repro/extend/k.py", src) == []

    def test_bare_noqa_does_not_suppress(self, tmp_path):
        src = "import numpy as np\nx = np.zeros(8)  # noqa\n"
        assert codes_in(tmp_path, "repro/extend/k.py", src) == ["RC002"]

    def test_noqa_only_silences_listed_code(self, tmp_path):
        src = "import numpy as np\nx = np.zeros(8)  # noqa: RC001\n"
        assert codes_in(tmp_path, "repro/extend/k.py", src) == ["RC002"]

    def test_select_restricts_rules(self, tmp_path):
        path = write(
            tmp_path,
            "repro/extend/k.py",
            "import numpy as np\n\n\ndef f(x: list = []) -> np.ndarray:\n"
            "    return np.zeros(8)\n",
        )
        all_codes = [v.rule for v in check_paths([path]).violations]
        assert sorted(all_codes) == ["RC002", "RC003"]
        only = [v.rule for v in check_paths([path], select=["RC003"]).violations]
        assert only == ["RC003"]

    def test_parse_error_is_a_finding(self, tmp_path):
        path = write(tmp_path, "broken.py", "def broken(:\n")
        result = check_paths([path])
        assert not result.ok
        assert result.parse_errors and not result.violations

    def test_file_level_noqa_silences_everything(self, tmp_path):
        src = (
            "# repro-check: noqa\n"
            "import numpy as np\n"
            "x = np.zeros(8)\n"
            "def _f(y=[]):\n    pass\n"
        )
        assert codes_in(tmp_path, "repro/extend/k.py", src) == []

    def test_noqa_inside_a_string_suppresses_nothing(self, tmp_path):
        # Only comment tokens carry directives: the same text as string
        # data (a test fixture, a docstring) silences no rule.
        src = (
            '"""# repro-check: noqa"""\n'
            "import numpy as np\n"
            'FIXTURE = "# repro-check: noqa\\n"\n'
            'x = np.zeros(8) if "# noqa: RC002" else None\n'
            "def _f(y=[]):\n    pass\n"
        )
        assert codes_in(tmp_path, "repro/extend/k.py", src) == ["RC002", "RC003"]

    def test_quoted_noqa_in_a_comment_suppresses_nothing(self, tmp_path):
        src = (
            "#: ``# repro-check: noqa`` silences a whole file\n"
            "import numpy as np\n"
            "x = np.zeros(8)  # see ``# noqa: RC002``\n"
        )
        assert codes_in(tmp_path, "repro/extend/k.py", src) == ["RC002"]

    def test_file_level_noqa_with_codes_is_selective(self, tmp_path):
        src = (
            "# repro-check: noqa: RC003\n"
            "import numpy as np\n"
            "x = np.zeros(8)\n"
            "def _f(y=[]):\n    pass\n"
        )
        assert codes_in(tmp_path, "repro/extend/k.py", src) == ["RC002"]


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "clean/ok.py", "def f(x: int) -> int:\n    return x\n")
        assert main([str(tmp_path / "clean")]) == 0
        out = capsys.readouterr().out
        assert "1 files, 0 violations" in out

    def test_violating_tree_exits_one(self, tmp_path, capsys):
        write(tmp_path, "bad/repro/extend/k.py", "import numpy as np\nx = np.empty(3)\n")
        assert main([str(tmp_path / "bad")]) == 1
        out = capsys.readouterr().out
        assert "RC002" in out and "1 violation" in out

    def test_no_paths_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_select_is_usage_error(self, tmp_path):
        # RC201 names a retired rule: it must not select silently.
        for code in ("RC999", "RC201"):
            with pytest.raises(SystemExit) as exc:
                main(["--select", code, str(tmp_path)])
            assert exc.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in REGISTRY:
            assert code in out

    @pytest.mark.parametrize(
        "code, scope",
        [
            ("RC002", sorted(DTYPE_REQUIRED_FUNCS)),
            ("RC005", ANNOTATION_SCOPES),
            ("RC107", BLOCKING_SCOPE_FILES),
        ],
    )
    def test_summary_names_every_scope_entry(self, code, scope):
        # --list-rules is the user-facing statement of what a rule covers;
        # it must not omit anything the rule actually enforces.
        summary = REGISTRY[code].summary
        for entry in scope:
            assert re.search(rf"(?<!\w){re.escape(entry)}(?!\w)", summary), entry

    def test_repo_source_tree_is_clean(self):
        # The gate the CI job runs; the repo must dogfood its own linter,
        # with no suppression file.
        repo = pathlib.Path(__file__).resolve().parents[1]
        trees = [str(repo / d) for d in ("src", "tests", "benchmarks")]
        assert main(["-q", *trees]) == 0


#: An RC suppression: inline ``# noqa: RC…`` or file-level ``# repro-check:
#: noqa``.  The lookbehind skips the examples checker.py's own comments
#: quote in backticks.
_SUPPRESSION = re.compile(
    r"(?<!`)#\s*(?:noqa:\s*RC\d{3}|repro-check:\s*noqa)", re.IGNORECASE
)


def suppressions(source):
    """Line numbers of comments that suppress an RC rule (docstrings skipped)."""
    return [
        tok.start[0]
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT and _SUPPRESSION.search(tok.string)
    ]


class TestNoSuppression:
    def test_scanner_finds_inline_and_file_level_suppressions(self):
        source = (
            '"""# noqa: RC001 in a docstring is not a comment."""\n'
            "#: ``# noqa: RC001`` quoted in a doc comment\n"
            "x = 1  # noqa: RC300\n"
            "# repro-check: noqa: RC101\n"
            "y = 2  # noqa: F401\n"
        )
        assert suppressions(source) == [3, 4]

    def test_src_carries_no_rc_suppression(self):
        # Every rule is clean on src/ on its own terms: a finding is fixed
        # or its rule is wrong, never silenced.
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        found = {
            str(path.relative_to(src)): lines
            for path in collect_files([src])
            if (lines := suppressions(path.read_text(encoding="utf-8")))
        }
        assert found == {}
