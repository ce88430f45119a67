#!/usr/bin/env python3
"""List public src/ names that nothing outside their own module uses.

    python3 tools/src_audit.py

For every header src/<dir>/<stem>.h the script collects the names it
declares publicly: classes, structs, enums, aliases, functions, methods and
data members at namespace scope or under public access. A name is listed when
no C++ file under src/, bench/, examples/ or tools/ other than
src/<dir>/<stem>.h and src/<dir>/<stem>.cpp mentions it outside comments and
string literals. Tests do not count: a name only tests call is listed.

Matching is by identifier text, so a name that another class also uses
(`size`, `run`, ...) counts as referenced; the list under-reports rather than
over-reports. Constructors, destructors, operators, enumerators and names in
anonymous or `detail` namespaces are not collected.

The output is informational: one `path:line  Scope::name` per entry, sorted,
then a count. The exit status is always 0.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEARCH_DIRS = ("src", "bench", "examples", "tools")
CPP_SUFFIXES = (".h", ".hpp", ".cpp", ".cc")

IDENT = re.compile(r"[A-Za-z_]\w*")
CLASS_HEAD = re.compile(
    r"\s*(?:template\s*<.*>\s*)?(class|struct|union)\s+(?:\[\[[^\]]*\]\]\s*)?(\w+)[^(]*$", re.S)
KEYWORDS = {
    "alignas", "auto", "bool", "break", "case", "catch", "char", "const", "constexpr",
    "decltype", "default", "delete", "do", "double", "else", "explicit", "extern",
    "false", "float", "for", "if", "inline", "int", "long", "mutable", "new", "noexcept",
    "nullptr", "override", "return", "short", "signed", "sizeof", "static",
    "static_assert", "struct", "switch", "template", "this", "throw", "true", "try",
    "typename", "unsigned", "using", "virtual", "void", "volatile", "while", "final",
}


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, keeping line breaks."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "R" and text.startswith('R"', i):
            m = re.match(r'R"([^(]*)\(', text[i:])
            end = text.find(")" + m.group(1) + '"', i) if m else -1
            j = n if end < 0 else end + len(m.group(1)) + 2
            out.append('""' + "\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def skip_balanced(text, i, open_ch, close_ch):
    """Index just past the bracket that closes the one at text[i]."""
    depth = 0
    while i < len(text):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def declared_name(statement, scope_name):
    """The name a namespace- or class-scope statement declares, or None."""
    s = re.sub(r"\[\[[^\]]*\]\]", " ", statement)
    while True:
        m = re.match(r"\s*template\s*<", s)
        if not m:
            break
        s = s[skip_balanced(s, m.end() - 1, "<", ">"):]
    s = s.strip()
    if not s or re.match(r"(friend|static_assert|using\s+namespace|typedef|#)\b", s):
        return None
    m = re.match(r"using\s+(\w+)\s*=", s)
    if m:
        return m.group(1)
    if re.match(r"using\b", s):
        return None
    m = re.match(r"(?:class|struct|union|enum(?:\s+class|\s+struct)?)\s+(\w+)", s)
    if m:
        return m.group(1)
    paren = s.find("(")
    equals = s.find("=")
    if paren >= 0 and (equals < 0 or paren < equals):
        head = s[:paren].rstrip()
        if "operator" in head or head.endswith("~") or re.search(r"~\s*\w+$", head):
            return None
        m = re.search(r"(\w+)$", head)
        if not m or m.group(1) in KEYWORDS or m.group(1) == scope_name:
            return None
        if m.group(1).isupper():  # macro invocation
            return None
        return m.group(1)
    head = re.split(r"[=\[{]", s, maxsplit=1)[0].rstrip()
    names = IDENT.findall(head)
    if len(names) < 2 or names[-1] in KEYWORDS:
        return None
    return names[-1]


def public_declarations(path):
    """(line, qualified name) for each public declaration in a header."""
    text = strip_comments_and_strings(open(path, encoding="utf-8").read())
    text = re.sub(r"^[ \t]*#.*$", "", text, flags=re.M)
    found = []
    # Scope stack entries: (kind, name, access) where kind is "ns", "class"
    # or "hidden" (anonymous/detail namespace: nothing inside is collected).
    stack = [("ns", "", "public")]
    start = 0
    i = 0

    def record(end):
        """Collect the declaration in text[start:end], if it is public."""
        kind, name, access = stack[-1]
        statement = text[start:end]
        decl = declared_name(statement, name)
        if kind == "hidden" or access != "public" or not decl:
            return
        lead = start + len(statement) - len(statement.lstrip())
        scope = "::".join(e[1] for e in stack if e[0] == "class")
        found.append((text.count("\n", 0, lead) + 1, f"{scope}::{decl}" if scope else decl))

    while i < len(text):
        c = text[i]
        if c == ":" and stack[-1][0] == "class":
            m = re.search(r"(public|private|protected)\s*$", text[start:i])
            if m and text[i + 1:i + 2] != ":":
                kind, name, _ = stack[-1]
                stack[-1] = (kind, name, m.group(1))
                start = i + 1
        if c == ";":
            record(i)
            start = i + 1
        elif c == "{":
            statement = text[start:i]
            ns = re.match(r"\s*(?:inline\s+)?namespace\s*(\w*)", statement)
            cls = CLASS_HEAD.match(statement)
            if ns:
                hidden = ns.group(1) in ("", "detail") or stack[-1][0] == "hidden"
                stack.append(("hidden" if hidden else "ns", ns.group(1), "public"))
                start = i + 1
            elif cls:
                record(i)
                outer_kind, _, outer_access = stack[-1]
                kind = "class" if outer_kind != "hidden" and outer_access == "public" else "hidden"
                access = "private" if cls.group(1) == "class" else "public"
                stack.append((kind, cls.group(2), access))
                start = i + 1
            else:
                # Function body, enum body or brace initializer: record the
                # declaration, then skip the braces.
                record(i)
                i = skip_balanced(text, i, "{", "}")
                start = i
                continue
        elif c == "}":
            if len(stack) > 1:
                stack.pop()
            start = i + 1
        i += 1
    return found


def cpp_files():
    for top in SEARCH_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for filename in sorted(filenames):
                if filename.endswith(CPP_SUFFIXES):
                    yield os.path.join(dirpath, filename)


def main():
    src = os.path.join(ROOT, "src")
    # identifier -> files that mention it outside comments and strings
    mentions = {}
    for path in cpp_files():
        text = strip_comments_and_strings(open(path, encoding="utf-8").read())
        for word in set(IDENT.findall(text)):
            mentions.setdefault(word, set()).add(path)

    entries = []
    for dirname in sorted(os.listdir(src)):
        directory = os.path.join(src, dirname)
        if not os.path.isdir(directory):
            continue
        for filename in sorted(os.listdir(directory)):
            if not filename.endswith(".h"):
                continue
            header = os.path.join(directory, filename)
            own = {header, os.path.join(directory, filename[:-2] + ".cpp")}
            for line, qualified in public_declarations(header):
                name = qualified.rsplit("::", 1)[-1]
                if not mentions.get(name, set()) - own:
                    rel = os.path.relpath(header, ROOT)
                    entries.append(f"{rel}:{line}  {qualified}")
    for entry in entries:
        print(entry)
    print(f"{len(entries)} public src/ name(s) with no reference outside their own module")
    return 0


if __name__ == "__main__":
    sys.exit(main())
