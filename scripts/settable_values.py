#!/usr/bin/env python3
"""Count the model's settable values and flag the ones nothing sets.

A settable value is a scalar field (arithmetic, enum, string or
sim::Time) of one of the config structs in AUDITED, or a constructor
parameter in PARAMETERS. A field counts as set when a file under src/,
bench/, tests/, examples/ or perfbench/ assigns it: `x.field = ...`, a
compound assignment, or a designated initializer, on a receiver whose
type resolves to that struct. A parameter counts as varied when its
call sites pass more than one distinct argument.

The rule (DESIGN.md §10): a calibration that nothing sets belongs to
the model, not to a run, so it is a named constant beside the code
that reads it. Nested structs are audited on their own when listed;
platform::PipelineSpec stays out, since perfbench reads its fields.
An entry whose struct or parameter is gone prints as such, so the
script reads both sides of a change that deletes one.

Usage: python3 scripts/settable_values.py [--root DIR]

Prints each struct's count of settable values and, for each field,
every file that assigns it. Exits 1 when a field is assigned nowhere
except its default member initializer, or every caller passes a
parameter the same argument.
"""

import argparse
import os
import re
import sys

SOURCE_DIRS = ("src", "bench", "tests", "examples", "perfbench")

# (namespace, struct, header that declares it)
AUDITED = (
    ("cloud", "FaasConfig", "src/cloud/faas.hpp"),
    ("net", "TopologyConfig", "src/net/topology.hpp"),
    ("core", "HaConfig", "src/core/ha.hpp"),
    ("cloud", "DataStoreConfig", "src/cloud/datastore.hpp"),
    ("cloud", "IaasConfig", "src/cloud/iaas.hpp"),
    ("core", "SchedulerConfig", "src/core/scheduler.hpp"),
    ("fault", "RetryConfig", "src/fault/retry.hpp"),
    ("apps", "DetectionConfig", "src/apps/detection.hpp"),
    ("fault", "FuzzConfig", "src/fault/fuzz.hpp"),
    ("edge", "DeviceSpec", "src/edge/device.hpp"),
    ("platform", "ScenarioConfig", "src/platform/scenario.hpp"),
    ("platform", "DeploymentConfig", "src/platform/deployment.hpp"),
    ("platform", "JobConfig", "src/platform/single_phase.hpp"),
    ("platform", "PlatformOptions", "src/platform/options.hpp"),
)

# (namespace, class, constructor parameter, header that declares it)
PARAMETERS = (
    ("sim", "RateMeter", "window", "src/sim/stats.hpp"),
    ("edge", "OnboardExecutor", "queue_limit", "src/edge/device.hpp"),
)

SCALARS = {
    "bool", "char", "int", "long", "unsigned", "float", "double",
    "size_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t", "int8_t",
    "int16_t", "int32_t", "int64_t", "Time", "string",
}
WRAPPERS = ("unique_ptr", "shared_ptr", "optional", "vector", "deque",
            "reference_wrapper")
NOT_TYPES = {
    "return", "else", "case", "delete", "new", "throw", "sizeof", "do",
    "goto", "co_return", "co_yield", "using", "typedef", "operator",
    "public", "private", "protected", "template", "typename",
}
ASSIGN = r"(?:[-+*/|&]?=)(?!=)"
IDENT = r"[A-Za-z_]\w*"
TOKEN = IDENT + r"(?:\s*\((?:[^()]|\([^()]*\))*\))?(?:\s*\[[^\]]*\])?"
MEMBER_ASSIGN = re.compile(
    r"(?<![\w.>:])(?P<chain>(?:" + TOKEN + r"\s*(?:\.|->)\s*)+)"
    r"(?P<field>" + IDENT + r")\s*" + ASSIGN)
DESIGNATED = re.compile(r"[{,]\s*\.(?P<field>" + IDENT + r")\s*=(?!=)")


def blank_literals(text):
    """Blank comments, string and char literals, keeping every offset."""
    out = []
    i, n = 0, len(text)

    def blank(j):
        out.append(re.sub(r"[^\n]", " ", text[i:j]))
        return j

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = blank(n if j < 0 else j)
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            i = blank(n if j < 0 else j + 2)
        elif c == '"' and i > 0 and text[i - 1] == "R":
            m = re.compile(r'"([^(\s]*)\(').match(text, i)
            end = text.find(")" + m.group(1) + '"', m.end()) if m else -1
            i = blank(n if end < 0 else end + len(m.group(1)) + 2)
        elif c == '"' or (c == "'" and not (
                i > 0 and text[i - 1].isalnum() and
                i + 1 < n and text[i + 1].isalnum())):
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            i = blank(min(j + 1, n))
        else:
            out.append(c)
            i += 1
    return "".join(out)


def match_brace(text, open_at):
    """Offset just past the bracket closing the one at @p open_at."""
    pairs = {"{": "}", "(": ")", "[": "]"}
    opener, closer = text[open_at], pairs[text[open_at]]
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == closer:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def base_type(decl):
    """The class name a declared type names: qualifiers, cv, references
    and smart-pointer/optional/container wrappers stripped."""
    t = re.sub(r"\b(const|volatile|static|inline|constexpr|mutable|"
               r"explicit|virtual|struct|class|typename)\b", " ", decl)
    t = t.replace("&", " ").replace("*", " ").strip()
    while True:
        m = re.fullmatch(r"(?:[\w:]*::)?(\w+)\s*<(.*)>", t, re.S)
        if not m or m.group(1) not in WRAPPERS:
            break
        t = m.group(2).split(",")[0].strip()
    t = re.sub(r"<.*>", "", t, flags=re.S).strip()
    return t.split("::")[-1].strip()


def statements(body):
    """Split a class body into its member statements' heads."""
    out, head, i = [], [], 0
    while i < len(body):
        c = body[i]
        if c == "{":
            end = match_brace(body, i)
            rest = body[end:].lstrip()
            if rest.startswith(";") or rest.startswith(","):
                head.append(body[i:end])   # braced initializer
                i = end
                continue
            out.append("".join(head))
            head, i = [], end
            continue
        if c == ";":
            out.append("".join(head))
            head = []
        else:
            head.append(c)
        i += 1
    return out


class Index:
    """Every struct/class body and function signature of the tree."""

    FIELD = re.compile(
        r"^(?P<type>[\w:<>,\s&*]+?)\s*\b(?P<name>" + IDENT + r")\s*"
        r"(?:=\s*(?P<init>.*)|(?P<braced>\{.*\}))?$", re.S)
    METHOD = re.compile(
        r"^(?P<ret>[\w:<>,\s&*]*?)\s*\b(?P<name>~?" + IDENT + r")\s*"
        r"\((?P<params>.*)\)[\w\s]*(?:=\s*\w+)?$", re.S)
    FUNCTION = re.compile(
        r"(?m)^[ \t]*(?:(?:static|inline|constexpr)\s+)*"
        r"(?P<ret>[\w:]+(?:<[^;{}()]*>)?(?:\s*[&*])?)\s+"
        r"(?:[\w:]+::)?(?P<name>" + IDENT + r")\s*\(")
    CLASS = re.compile(
        r"\b(?:struct|class)\s+(?P<name>" + IDENT + r")\s*(?:final\s*)?"
        r"(?::[^;{]*)?\{")

    def __init__(self, root):
        self.files = {}
        for d in SOURCE_DIRS:
            for dirpath, _, names in os.walk(os.path.join(root, d)):
                for name in sorted(names):
                    if name.endswith((".hpp", ".cpp", ".h")):
                        path = os.path.join(dirpath, name)
                        rel = os.path.relpath(path, root)
                        with open(path, encoding="utf-8") as f:
                            self.files[rel] = blank_literals(f.read())
        self.classes = {}     # name -> {"fields": [...], "methods": {...}}
        self.functions = {}   # free function name -> set of return types
        self.enums = set()
        for rel, text in sorted(self.files.items()):
            for m in re.finditer(r"\benum\s+(?:class\s+)?(" + IDENT +
                                 r")\b", text):
                self.enums.add(m.group(1))
            for m in self.CLASS.finditer(text):
                body = text[m.end():match_brace(text, m.end() - 1) - 1]
                cls = self.classes.setdefault(
                    m.group("name"), {"fields": [], "methods": {}})
                self.parse_class(cls, m.group("name"), body)
            for m in self.FUNCTION.finditer(text):
                ret = base_type(m.group("ret"))
                if ret not in NOT_TYPES and m.group("name") not in NOT_TYPES:
                    self.functions.setdefault(m.group("name"), set()).add(ret)

    def parse_class(self, cls, name, body):
        for head in statements(body):
            head = re.sub(r"\b(public|private|protected)\s*:(?!:)", " ", head)
            head = " ".join(head.split())
            if not head or "operator" in head or re.match(
                    r"(using|friend|template|typedef|"
                    r"static_assert|enum|struct|class)\b", head):
                continue
            if re.match(r"static\b", head) and "(" not in head:
                continue   # a class constant, not a settable field
            method = self.METHOD.match(head)
            field = self.FIELD.match(head)
            if field and "(" not in field.group("type") and (
                    not method or "(" in (field.group("init") or "")
                    and head.index("=") < head.index("(")):
                ftype = field.group("type").strip()
                if ftype and base_type(ftype) not in NOT_TYPES:
                    cls["fields"].append((field.group("name"), ftype))
                continue
            if method:
                ret = base_type(method.group("ret")) or name
                cls["methods"].setdefault(method.group("name"), []).append(
                    (ret, method.group("params")))

    def is_type(self, name):
        return (name in self.classes or name in self.enums or
                name in SCALARS or name == "auto")

    def member_type(self, owner, token):
        """Type of @p token (a field, or a call/index of one) on an
        @p owner, or of any class that has it when @p owner is None."""
        name = re.match(IDENT, token).group(0)
        call = "(" in token
        owners = [owner] if owner else sorted(self.classes)
        found = set()
        for o in owners:
            cls = self.classes.get(o)
            if not cls:
                continue
            if call:
                for ret, _ in cls["methods"].get(name, []):
                    found.add(ret)
            else:
                for fname, ftype in cls["fields"]:
                    if fname == name:
                        found.add(base_type(ftype))
        return found.pop() if len(found) == 1 else None


def declared_type(index, rel, text, pos, name, depth):
    """Type of variable @p name as declared nearest before @p pos in
    @p rel (or anywhere in it, or in its header), resolving `auto`."""
    decl = re.compile(
        r"(?P<type>[A-Za-z_][\w:]*(?:<[^;{}()]*?>)?)(?P<mid>[\s&*]+|"
        r"\s+const\s*[&*]*\s*)\b" + re.escape(name) +
        r"\b(?=\s*(?:[;=,){\[(:]|$))")
    texts = [(text, pos)]
    header = re.sub(r"\.cpp$", ".hpp", rel)
    if header != rel and header in index.files:
        texts.append((index.files[header], None))
    for t, limit in texts:
        cands = [m for m in decl.finditer(t)
                 if index.is_type(base_type(m.group("type")))]
        if not cands:
            continue
        before = [m for m in cands if limit is None or m.start() < limit]
        m = (before or cands)[-1]
        tname = base_type(m.group("type"))
        if tname != "auto":
            return tname
        init = re.match(r"\s*(?:=\s*)?(?P<expr>[^;]+)", t[m.end():])
        return expr_type(index, rel, t, m.start(), init.group("expr"),
                         depth + 1) if init else None
    return index.member_type(None, name)


def expr_type(index, rel, text, pos, expr, depth=0):
    """Type of a chain expression such as `a.b().c` or `T::make()`."""
    if depth > 4:
        return None
    expr = expr.strip()
    m = re.match(r"(?:std::move\()?(?P<scope>(?:" + IDENT + r"::)+)?"
                 r"(?P<rest>.*)", expr, re.S)
    scope = [s for s in (m.group("scope") or "").split("::") if s]
    parts = re.split(r"\s*(?:\.|->)\s*", m.group("rest"))
    tokens = [re.match(TOKEN, p).group(0) for p in parts
              if re.match(TOKEN, p)]
    if not tokens:
        return None
    first = tokens[0]
    fname = re.match(IDENT, first).group(0)
    if scope and scope[-1] in index.classes:
        t = (index.member_type(scope[-1], first)
             if fname != scope[-1] else scope[-1])
    elif fname in index.classes and fname not in index.functions:
        t = fname                       # T{...} or T(...)
    elif "(" in first:
        rets = index.functions.get(fname, set())
        t = next(iter(rets)) if len(rets) == 1 else None
    else:
        t = declared_type(index, rel, text, pos, fname, depth)
    for tok in tokens[1:]:
        t = index.member_type(t, tok) if t else None
    if t is None and len(tokens) > 1:
        t = index.member_type(None, tokens[-1])
    return t


def braced_type(index, text, pos):
    """Type a designated initializer at @p pos initializes, or None
    when no class name precedes its brace (`return {...}`)."""
    depth = 0
    for i in range(pos, -1, -1):
        if text[i] == "}":
            depth += 1
        elif text[i] == "{":
            if depth == 0:
                m = re.search(r"(" + IDENT + r")(?:\s+" + IDENT +
                              r")?\s*=?\s*$", text[:i])
                t = base_type(m.group(1)) if m else None
                return t if t in index.classes else None
            depth -= 1
    return None


def assignments(index, owners):
    """Map (struct, field) -> set of files assigning it; collects the
    sites no receiver type was found for in `unresolved`."""
    fields = {}
    for struct in owners:
        for fname, _ in index.classes[struct]["fields"]:
            fields.setdefault(fname, set()).add(struct)
    sets, unresolved = {}, []
    for rel, text in sorted(index.files.items()):
        sites = []
        for m in MEMBER_ASSIGN.finditer(text):
            sites.append((m.group("field"), m.start("field"),
                          lambda m=m: expr_type(index, rel, text,
                                                m.start(),
                                                m.group("chain")[:-1])))
        for m in DESIGNATED.finditer(text):
            sites.append((m.group("field"), m.start("field"),
                          lambda m=m: braced_type(index, text, m.start())))
        for fname, at, resolve in sites:
            if fname not in fields:
                continue
            owner = resolve()
            if owner is None:
                line = text.count("\n", 0, at) + 1
                unresolved.append(f"{rel}:{line}: .{fname}")
                hits = fields[fname]
            else:
                hits = {owner} & fields[fname]
            for struct in hits:
                sets.setdefault((struct, fname), set()).add(rel)
    return sets, unresolved


def is_scalar(index, ftype):
    return base_type(ftype) in SCALARS | index.enums and \
        not re.search(r"\b(vector|map|deque|set)\b", ftype)


def call_arguments(index, cls, param):
    """Arguments passed for constructor parameter @p param of @p cls, by
    file, or None when no constructor takes such a parameter."""
    at = None
    for ret, params in index.classes.get(cls, {}).get(
            "methods", {}).get(cls, []):
        names = [re.findall(IDENT, p)[-1] for p in split_args(params) if
                 re.findall(IDENT, p)]
        if param in names:
            at = names.index(param)
    if at is None:
        return None
    members = sorted({f for c in index.classes.values()
                      for f, t in c["fields"] if base_type(t) == cls})
    site = re.compile(r"(?<!struct )(?<!class )\b" + cls +
                      r"\b(?:\s*>)?\s*(?:" + IDENT + r"\s*)?(?P<open>[({])")
    init = re.compile(r"[:,]\s*(?P<name>" + "|".join(members or ["$^"]) +
                      r")\s*(?P<open>[({])")
    args = {}
    for rel, text in sorted(index.files.items()):
        for m in list(site.finditer(text)) + list(init.finditer(text)):
            open_at = m.start("open")
            inner = text[open_at + 1:match_brace(text, open_at) - 1]
            parts = split_args(inner)
            # A declaration's parameter ("Time window") is no argument.
            if len(parts) > at and not re.fullmatch(
                    r"[\w:<>]+[\s&*]+\w+", parts[at]):
                arg = re.sub(r"\s+|\b\w+::", "", parts[at])
                args.setdefault(arg, set()).add(rel)
    return args


def split_args(text):
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    if "".join(cur).strip():
        parts.append("".join(cur).strip())
    return parts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."))
    root = os.path.abspath(parser.parse_args().root)
    index = Index(root)

    present = [(ns, s) for ns, s, _ in AUDITED if s in index.classes]
    sets, unresolved = assignments(index, [s for _, s in present])
    total, never = 0, []
    for ns, struct, header in AUDITED:
        if struct not in index.classes:
            print(f"{ns}::{struct}: not declared, 0 settable values")
            continue
        scalars = [(f, t) for f, t in index.classes[struct]["fields"]
                   if is_scalar(index, t)]
        unset = [f for f, _ in scalars if not sets.get((struct, f))]
        total += len(scalars)
        print(f"{ns}::{struct}: {len(scalars)} settable values, "
              f"{len(unset)} set by nothing ({header})")
        for fname, _ in scalars:
            files = sorted(sets.get((struct, fname), ()))
            print(f"  {fname:26} " +
                  (", ".join(files) if files else "SET BY NOTHING"))
            if not files:
                never.append(f"{ns}::{struct}::{fname}")
    for ns, cls, param, header in PARAMETERS:
        args = call_arguments(index, cls, param)
        if args is None:
            print(f"{ns}::{cls}: no constructor parameter '{param}'")
            continue
        total += 1
        print(f"{ns}::{cls}({param}): {len(args)} distinct arguments "
              f"({header})")
        for arg, files in sorted(args.items()):
            print(f"  {arg:26} " + ", ".join(sorted(files)))
        if len(args) == 1:
            never.append(f"{ns}::{cls}({param})")
    for site in unresolved:
        print(f"note: receiver type not found, counted for every "
              f"struct with the field: {site}")
    print(f"{total} settable values, {len(never)} set by nothing")
    for name in never:
        print(f"  set by nothing: {name}")
    return 1 if never else 0


if __name__ == "__main__":
    sys.exit(main())
