#!/usr/bin/env python3
"""Documentation consistency lint (the CI docs job).

Five checks, all over the committed tree (no build needed):

1. Markdown link check: every relative link target in README.md,
   DESIGN.md, EXPERIMENTS.md, ROADMAP.md, CHANGES.md and docs/*.md must
   exist on disk (fragments are stripped; http/https/mailto links are
   not fetched).

2. Schema registry check: the set of `dcfb-<kind>-v<N>` version strings
   appearing in src/, tools/, bench/ and scripts/ must equal the set of
   schemas registered in docs/SCHEMAS.md.  A schema added to the code
   without a registry row -- or a registry row whose string vanished
   from the code -- fails.  (tests/ is excluded: negative-case tests
   mention deliberately-invalid versions.)

3. Section-reference check: every `DESIGN.md section N` / `DESIGN.md §N`
   reference (and every bare `§N` inside DESIGN.md itself) must name an
   existing `## N.` heading of DESIGN.md.  Scanned: the live docs
   (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md) and src/, tools/,
   bench/, tests/, scripts/.  CHANGES.md and ROADMAP.md are history and
   keep the numbering of their day.

4. Repository-path check: every backticked path under src/, tests/,
   bench/, tools/, scripts/, perfbench/, examples/ or docs/ in the live
   docs (README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md) must exist.
   A `:line` suffix and any command arguments after the path are
   ignored; a `{a,b}` group must resolve for every alternative, a glob
   must match something, and a `<placeholder>` component checks only
   the directory before it.

5. Qualified-name check: in every backticked span of the live docs,
   each C++ qualified name (`ns::name`, `Class::member`, chains such as
   `a::b::c`) must name real code: every component after the first must
   be an identifier somewhere in src/, tests/, bench/, tools/,
   perfbench/, examples/ or scripts/.  A renamed or deleted class,
   function or namespace member then fails instead of lingering in
   prose.

Exit status: 0 clean, 1 with findings listed on stderr.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "ROADMAP.md",
    ROOT / "CHANGES.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

CODE_DIRS = ["src", "tools", "bench", "scripts"]
CODE_SUFFIXES = {".h", ".cpp", ".py"}

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
SCHEMA_RE = re.compile(r"dcfb-[a-z]+-v[0-9]+")

SECTION_DOCS = [
    ROOT / "README.md",
    ROOT / "DESIGN.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]
SECTION_CODE_DIRS = ["src", "tools", "bench", "tests", "scripts"]
SECTION_CODE_SUFFIXES = CODE_SUFFIXES | {".txt"}
HEADING_RE = re.compile(r"^## (\d+)\.", re.M)
# "DESIGN.md section 9", "DESIGN.md §9" and chains like "DESIGN.md
# §9/§11"; the gap may wrap across a comment line ("DESIGN.md\n *
# section 4").
SECTION_REF_RE = re.compile(
    r"DESIGN\.md[\s*#/]*(?:section[\s*#/]+|§)(\d+(?:\s*/\s*§?\d+)*)")
BARE_REF_RE = re.compile(r"§(\d+)")

PATH_REF_RE = re.compile(
    r"`((?:src|tests|bench|tools|scripts|perfbench|examples|docs)/[^`\s]*)")
BRACE_RE = re.compile(r"\{([^{}]*)\}")

NAME_CODE_DIRS = ["src", "tests", "bench", "tools", "perfbench",
                  "examples", "scripts"]
BACKTICK_RE = re.compile(r"`([^`\n]+)`")
QUALIFIED_RE = re.compile(r"\b[A-Za-z_]\w*(?:::~?[A-Za-z_]\w*)+")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def check_links(errors):
    for doc in DOC_FILES:
        if not doc.exists():
            errors.append(f"{doc.relative_to(ROOT)}: file missing")
            continue
        text = doc.read_text(encoding="utf-8")
        # Fenced code blocks routinely show shell syntax like
        # [--flag](...)-free usage lines; strip them before linking.
        text = re.sub(r"```.*?```", "", text, flags=re.S)
        for m in LINK_RE.finditer(text):
            target = m.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if not path:  # pure in-page fragment
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                line = text[: m.start()].count("\n") + 1
                errors.append(
                    f"{doc.relative_to(ROOT)}:{line}: broken link "
                    f"-> {target}"
                )


def code_schemas():
    found = set()
    for d in CODE_DIRS:
        for path in (ROOT / d).rglob("*"):
            if path.suffix not in CODE_SUFFIXES or not path.is_file():
                continue
            found |= set(SCHEMA_RE.findall(
                path.read_text(encoding="utf-8", errors="replace")))
    return found


def registered_schemas():
    registry = ROOT / "docs" / "SCHEMAS.md"
    if not registry.exists():
        return None
    found = set()
    for line in registry.read_text(encoding="utf-8").splitlines():
        if line.startswith("|"):
            m = SCHEMA_RE.search(line)
            if m:
                found.add(m.group(0))
    return found


def check_schemas(errors):
    in_code = code_schemas()
    in_registry = registered_schemas()
    if in_registry is None:
        errors.append("docs/SCHEMAS.md: file missing")
        return
    for schema in sorted(in_code - in_registry):
        errors.append(
            f"docs/SCHEMAS.md: schema {schema} used in the code but "
            "not registered"
        )
    for schema in sorted(in_registry - in_code):
        errors.append(
            f"docs/SCHEMAS.md: schema {schema} registered but absent "
            "from src//tools//bench//scripts/"
        )


def check_section_refs(errors):
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    sections = set(HEADING_RE.findall(design))
    files = list(SECTION_DOCS)
    for d in SECTION_CODE_DIRS:
        files += sorted(p for p in (ROOT / d).rglob("*")
                        if p.is_file() and p.suffix in SECTION_CODE_SUFFIXES)
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        refs = [(m.start(), n) for m in SECTION_REF_RE.finditer(text)
                for n in re.findall(r"\d+", m.group(1))]
        if path.name == "DESIGN.md":
            refs += [(m.start(), m.group(1))
                     for m in BARE_REF_RE.finditer(text)]
        for pos, number in refs:
            if number not in sections:
                line = text[:pos].count("\n") + 1
                errors.append(
                    f"{path.relative_to(ROOT)}:{line}: DESIGN.md section "
                    f"{number} does not exist")


def path_exists(ref):
    """True when repository path @ref (globs and {a,b} allowed) exists."""
    m = BRACE_RE.search(ref)
    if m:
        return all(path_exists(ref[:m.start()] + alt + ref[m.end():])
                   for alt in m.group(1).split(","))
    if "<" in ref:
        return (ROOT / ref.split("<", 1)[0]).is_dir()
    if any(c in ref for c in "*?["):
        return any(ROOT.glob(ref))
    return (ROOT / ref).exists()


def check_paths(errors):
    for doc in SECTION_DOCS:
        text = doc.read_text(encoding="utf-8")
        for m in PATH_REF_RE.finditer(text):
            ref = re.sub(r":\d[\d-]*$", "", m.group(1))
            if not path_exists(ref):
                line = text[: m.start()].count("\n") + 1
                errors.append(f"{doc.relative_to(ROOT)}:{line}: path "
                              f"{m.group(1)} does not exist")


def code_identifiers():
    names = set()
    for d in NAME_CODE_DIRS:
        for path in (ROOT / d).rglob("*"):
            if path.is_file() and path.suffix in CODE_SUFFIXES:
                names |= set(IDENT_RE.findall(
                    path.read_text(encoding="utf-8", errors="replace")))
    return names


def check_qualified_names(errors):
    names = code_identifiers()
    for doc in SECTION_DOCS:
        text = doc.read_text(encoding="utf-8")
        for span in BACKTICK_RE.finditer(text):
            for m in QUALIFIED_RE.finditer(span.group(1)):
                missing = [part for part in m.group(0).split("::")[1:]
                           if part.lstrip("~") not in names]
                if missing:
                    line = text[: span.start()].count("\n") + 1
                    errors.append(
                        f"{doc.relative_to(ROOT)}:{line}: {m.group(0)}: "
                        f"no identifier {', '.join(missing)} in the code")


def main():
    errors = []
    check_links(errors)
    check_schemas(errors)
    check_section_refs(errors)
    check_paths(errors)
    check_qualified_names(errors)
    if errors:
        for e in errors:
            print(e, file=sys.stderr)
        print(f"doc_lint: {len(errors)} finding(s)", file=sys.stderr)
        return 1
    print(f"doc_lint: {len(DOC_FILES)} documents, links, schema registry, "
          "DESIGN.md section references, repository paths and qualified "
          "names clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
