"""Cross-module analysis substrate tests: graph, taint flows, releases."""

from repro.analysis.checker import collect_files, parse_file
from repro.analysis.flows import ProjectAnalyses
from repro.analysis.graph import ProjectGraph, dotted_name, module_name_of


def build_graph(tmp_path, files):
    """Write {rel: source} under tmp_path and build the project graph."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    contexts = [parse_file(p) for p in collect_files([tmp_path])]
    return ProjectGraph.from_contexts(contexts)


class TestNaming:
    def test_module_name_of(self):
        assert module_name_of("core/executor.py") == "repro.core.executor"
        assert module_name_of("core/__init__.py") == "repro.core"
        assert module_name_of("__init__.py") == "repro"

    def test_dotted_name(self):
        import ast

        expr = ast.parse("a.b.c(x)").body[0].value
        assert dotted_name(expr.func) == "a.b.c"
        subscript = ast.parse("a[0](x)").body[0].value
        assert dotted_name(subscript.func) is None


class TestCallResolution:
    def test_same_module_call(self, tmp_path):
        g = build_graph(
            tmp_path,
            {
                "repro/core/a.py": (
                    "def helper() -> int:\n    return 1\n\n"
                    "def caller() -> int:\n    return helper()\n"
                )
            },
        )
        assert list(g.callees("repro.core.a.caller")) == ["repro.core.a.helper"]

    def test_cross_module_relative_import(self, tmp_path):
        g = build_graph(
            tmp_path,
            {
                "repro/core/a.py": (
                    "from .b import helper\n\n"
                    "def caller() -> int:\n    return helper()\n"
                ),
                "repro/core/b.py": "def helper() -> int:\n    return 1\n",
            },
        )
        assert list(g.callees("repro.core.a.caller")) == ["repro.core.b.helper"]

    def test_constructor_resolves_to_init(self, tmp_path):
        g = build_graph(
            tmp_path,
            {
                "repro/core/a.py": (
                    "from .b import Widget\n\n"
                    "def make() -> object:\n    return Widget(3)\n"
                ),
                "repro/core/b.py": (
                    "class Widget:\n"
                    "    def __init__(self, n: int) -> None:\n"
                    "        self.n = n\n"
                ),
            },
        )
        assert list(g.callees("repro.core.a.make")) == [
            "repro.core.b.Widget.__init__"
        ]

    def test_self_method_resolution(self, tmp_path):
        g = build_graph(
            tmp_path,
            {
                "repro/core/a.py": (
                    "class C:\n"
                    "    def step(self) -> int:\n"
                    "        return 1\n"
                    "    def run(self) -> int:\n"
                    "        return self.step()\n"
                )
            },
        )
        assert list(g.callees("repro.core.a.C.run")) == ["repro.core.a.C.step"]

    def test_reachability(self, tmp_path):
        g = build_graph(
            tmp_path,
            {
                "repro/core/a.py": (
                    "from .b import mid\n\n"
                    "def top() -> int:\n    return mid()\n"
                ),
                "repro/core/b.py": (
                    "def mid() -> int:\n    return leaf()\n\n"
                    "def leaf() -> int:\n    return 1\n\n"
                    "def unrelated() -> int:\n    return 2\n"
                ),
            },
        )
        reach = g.reachable_from({"repro.core.a.top"})
        assert reach == {
            "repro.core.a.top",
            "repro.core.b.mid",
            "repro.core.b.leaf",
        }


class TestTaintFlows:
    def analyses(self, tmp_path, files):
        return ProjectAnalyses(build_graph(tmp_path, files))

    def test_set_iteration_is_a_hazard(self, tmp_path):
        pa = self.analyses(
            tmp_path,
            {
                "repro/core/a.py": (
                    "def f(xs: list) -> list:\n"
                    "    out = []\n"
                    "    for x in set(xs):\n"
                    "        out.append(x)\n"
                    "    return out\n"
                )
            },
        )
        info = pa.graph.functions["repro.core.a.f"]
        assert len(pa.flow.function_flow(info).hazards) == 1

    def test_sorted_launders_the_taint(self, tmp_path):
        pa = self.analyses(
            tmp_path,
            {
                "repro/core/a.py": (
                    "def f(xs: list) -> list:\n"
                    "    out = []\n"
                    "    for x in sorted(set(xs)):\n"
                    "        out.append(x)\n"
                    "    return out\n"
                )
            },
        )
        info = pa.graph.functions["repro.core.a.f"]
        assert pa.flow.function_flow(info).hazards == []

    def test_rebinding_launders(self, tmp_path):
        pa = self.analyses(
            tmp_path,
            {
                "repro/core/a.py": (
                    "def f(xs: list) -> list:\n"
                    "    keys = set(xs)\n"
                    "    keys = sorted(keys)\n"
                    "    out = []\n"
                    "    for x in keys:\n"
                    "        out.append(x)\n"
                    "    return out\n"
                )
            },
        )
        info = pa.graph.functions["repro.core.a.f"]
        assert pa.flow.function_flow(info).hazards == []

    def test_return_taint_crosses_modules(self, tmp_path):
        pa = self.analyses(
            tmp_path,
            {
                "repro/core/a.py": (
                    "from .b import keys_of\n\n"
                    "def f(d: dict) -> list:\n"
                    "    out = []\n"
                    "    for k in keys_of(d):\n"
                    "        out.append(k)\n"
                    "    return out\n"
                ),
                "repro/core/b.py": (
                    "def keys_of(d: dict) -> set:\n    return set(d)\n"
                ),
            },
        )
        info = pa.graph.functions["repro.core.a.f"]
        assert len(pa.flow.function_flow(info).hazards) == 1

    def test_nondet_source_taints(self, tmp_path):
        pa = self.analyses(
            tmp_path,
            {
                "repro/core/a.py": (
                    "import os\n\n"
                    "def f(d: str) -> list:\n"
                    "    out = []\n"
                    "    for name in os.listdir(d):\n"
                    "        out.append(name)\n"
                    "    return out\n"
                )
            },
        )
        info = pa.graph.functions["repro.core.a.f"]
        hazards = pa.flow.function_flow(info).hazards
        assert len(hazards) == 1
        assert any(t.kind == "nondet" for t in hazards[0].taints)
