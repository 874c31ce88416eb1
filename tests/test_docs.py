"""DESIGN.md names only things that exist.

Three checks over the design document: every repository path it writes
exists, every module in the experiment index's Modules column resolves
to a file under ``src/repro/``, and every package of ``src/repro/`` has
a section that links the test file which is its contract.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DESIGN = ROOT / "DESIGN.md"
PACKAGE = ROOT / "src" / "repro"

#: a repository path as written in prose: stops at ``::`` and at closing punctuation
PATH = re.compile(r"(?<![\w./-])((?:src|tests|benchmarks|tools|examples)/[\w./*-]*[\w*/])")
MODULE = re.compile(r"[a-z_]+(\.[a-z_]+)*(\.\*)?")
SECTION = re.compile(r"^### 3\.\d+ `repro\.(\w+)`", re.M)
HEADING = re.compile(r"^#{2,3} ", re.M)
CONTRACT = re.compile(r"\]\((tests/test_\w+\.py)\)")


def missing_paths(text: str) -> list[str]:
    """Paths under the five code trees that the text writes and the tree lacks."""
    missing = []
    for path in sorted(set(PATH.findall(text))):
        found = any(ROOT.glob(path)) if "*" in path else (ROOT / path).exists()
        if not found:
            missing.append(path)
    return missing


def index_modules(text: str) -> list[str]:
    """The dotted names in the Modules column of section 4's table."""
    section = text.split("\n## 4.", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]

    def cells(row):
        return [c.strip() for c in re.split(r"(?<!\\)\|", row.strip().strip("|"))]

    column = cells(rows[0]).index("Modules")
    return [
        name
        for row in rows[2:]
        for name in re.findall(r"`([^`]+)`", cells(row)[column])
        if MODULE.fullmatch(name)
    ]


def resolves(module: str) -> bool:
    """``gravity.solver`` → ``src/repro/gravity/solver.py``; a package needs its ``__init__``."""
    path = PACKAGE.joinpath(*module.removesuffix(".*").split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def package_sections(text: str) -> dict[str, str]:
    """``{package: its section's text}`` for every ``### 3.N `repro.<package>``` heading;
    a section ends at the next heading."""
    sections = {}
    for head in SECTION.finditer(text):
        end = HEADING.search(text, head.end())
        sections[head.group(1)] = text[head.start():end.start() if end else len(text)]
    return sections


PACKAGES = sorted(d.name for d in PACKAGE.iterdir() if (d / "__init__.py").is_file())


@pytest.fixture(scope="module")
def design() -> str:
    return DESIGN.read_text(encoding="utf-8")


def test_every_path_written_exists(design):
    assert missing_paths(design) == []


def test_every_index_module_resolves(design):
    modules = index_modules(design)
    assert modules, "the experiment index names no module"
    assert [m for m in modules if not resolves(m)] == []


def test_every_package_has_a_section_linking_its_contract(design):
    sections = package_sections(design)
    assert sorted(sections) == PACKAGES
    for package, body in sections.items():
        links = CONTRACT.findall(body)
        assert links, f"repro.{package} links no tests/test_*.py"
        assert [t for t in links if not (ROOT / t).is_file()] == [], package


def test_the_checks_see_what_is_gone():
    """A deleted module, a deleted file and a package section without its
    contract are each reported."""
    text = (
        "See `src/repro/gravity/fmm.py` and `tests/oracle.py::oracle_forces`.\n"
        "### 3.1 `repro.keys` — keys\n\nNo link here.\n"
        "### 3.2 `repro.io` — files\n\n[tests/test_io_sdf.py](tests/test_io_sdf.py)\n"
        "\n## 4. Experiment index\n\n"
        "| ID | Modules | Regenerated by |\n|---|---|---|\n"
        "| Fig. 2 | `tree.traversal`, `gravity.background` | — |\n"
        "| Table 2 | `parallel.*`, `perfmodel.breakdown` (`errtol=1e30`) | — |\n"
        "\n## 5. Testing\n"
    )
    assert missing_paths(text) == ["src/repro/gravity/fmm.py"]
    modules = index_modules(text)
    assert modules == ["tree.traversal", "gravity.background", "parallel.*", "perfmodel.breakdown"]
    assert [m for m in modules if not resolves(m)] == ["gravity.background", "perfmodel.breakdown"]
    sections = package_sections(text)
    assert sorted(sections) == ["io", "keys"]
    assert CONTRACT.findall(sections["keys"]) == []
    assert CONTRACT.findall(sections["io"]) == ["tests/test_io_sdf.py"]
