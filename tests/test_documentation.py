"""Documentation consistency checks.

Cheap guards that keep the docs honest as the code evolves: every paper
artifact has a benchmark, every claimed example exists, and the design
document's experiment index matches the benchmark tree.
"""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDeliverablesPresent:
    def test_top_level_documents(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            path = REPO / name
            assert path.exists(), f"missing {name}"
            assert path.stat().st_size > 1000

    def test_docs_directory(self):
        docs = {p.name for p in (REPO / "docs").glob("*.md")}
        assert {
            "architecture.md",
            "writing_policies.md",
            "ghrp_algorithm.md",
            "workload_generator.md",
            "trace_format.md",
        } <= docs


class TestFigureBenchmarkCoverage:
    def test_every_paper_artifact_has_a_benchmark(self):
        benchmarks = {p.name for p in (REPO / "benchmarks").glob("test_*.py")}
        for figure in range(1, 12):
            matching = [b for b in benchmarks if f"fig{figure:02d}" in b]
            assert matching, f"no benchmark regenerates Figure {figure}"
        assert "test_table1_storage.py" in benchmarks
        assert "test_headline_numbers.py" in benchmarks

    def test_design_indexes_every_figure(self):
        design = (REPO / "DESIGN.md").read_text()
        for figure in range(1, 12):
            assert f"fig{figure}" in design, f"DESIGN.md missing fig{figure} row"
        assert "table1" in design

    def test_experiments_covers_every_figure(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for figure in range(1, 12):
            assert re.search(rf"Fig\.?\s*{figure}\b", experiments), (
                f"EXPERIMENTS.md missing Figure {figure}"
            )
        assert "Table I" in experiments


class TestReadmeClaims:
    def test_claimed_examples_exist(self):
        readme = (REPO / "README.md").read_text()
        for claimed in re.findall(r"`([a-z_]+\.py)`", readme):
            if claimed.startswith("test_"):
                continue  # benchmark/test files are referenced elsewhere
            assert (REPO / "examples" / claimed).exists(), (
                f"README claims example {claimed} which does not exist"
            )

    def test_claimed_cli_commands_exist(self):
        from repro.cli import build_parser

        readme = (REPO / "README.md").read_text()
        parser = build_parser()
        subcommands = set()
        for action in parser._actions:
            if hasattr(action, "choices") and action.choices:
                subcommands = set(action.choices)
        for command in re.findall(r"repro-sim (\w[\w-]*)", readme):
            assert command in subcommands, (
                f"README references repro-sim {command!r} which is not a subcommand"
            )

    def test_policy_names_in_readme_are_registered(self):
        from repro.policies.registry import available_policies

        registered = set(available_policies())
        # Spot-check the headline names the README leans on.
        assert {"lru", "srrip", "sdbp", "ghrp", "opt", "ship"} <= registered


class TestDottedModuleNames:
    """Every dotted ``repro.<pkg>.<module>`` a document names must exist:
    a deleted module cannot leave a doc line pointing at it."""

    DOCUMENTS = ("README.md", "DESIGN.md", "docs/*.md")
    DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")

    @staticmethod
    def _resolves(dotted):
        """The longest module prefix is a file under ``src/``; the rest,
        if any, is an attribute of that module."""
        import importlib

        parts = dotted.split(".")
        path = REPO / "src"
        for index, part in enumerate(parts):
            if (path / part / "__init__.py").exists():
                path = path / part
            elif (path / f"{part}.py").exists():
                return True
            else:
                module = importlib.import_module(".".join(parts[:index]))
                return hasattr(module, part)
        return True

    @staticmethod
    def _exempt_lines(path):
        """docs/api.md's migration sections name removed modules on
        purpose."""
        exempt, inside = set(), False
        if path.name == "api.md":
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if line.startswith("## "):
                    inside = line.startswith("## Migrating")
                if inside:
                    exempt.add(number)
        return exempt

    def test_named_modules_exist(self):
        # Logger names (`get_logger("progress")` logs as `repro.progress`)
        # are dotted too but name no module.
        sources = "\n".join(
            p.read_text() for p in (REPO / "src" / "repro").rglob("*.py")
        )
        loggers = {
            f"repro.{name}" for name in re.findall(r'get_logger\("([\w.]+)"\)', sources)
        }
        paths = [p for pattern in self.DOCUMENTS for p in sorted(REPO.glob(pattern))]
        missing = []
        for path in paths:
            exempt = self._exempt_lines(path)
            for number, line in enumerate(path.read_text().splitlines(), 1):
                if number in exempt:
                    continue
                for dotted in self.DOTTED.findall(line):
                    if dotted in loggers or self._resolves(dotted):
                        continue
                    missing.append(f"{path.relative_to(REPO)}:{number}: {dotted}")
        assert not missing, "documents name modules that do not exist:\n" + "\n".join(
            missing
        )
