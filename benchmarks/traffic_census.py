"""Traffic census: which public names do the workloads, examples, figure
benches and CLI actually reach?

The standing rule "a feature stays only while measured traffic reaches
it" needs a count.  This script runs every traffic source below in its
own subprocess under a profiling hook, collects the code each one calls
under ``src/repro/``, and prints every public name (``repro.__all__`` and
the subpackages' ``__all__``) with the sources that reach it.  It exits
non-zero when a public name is reached by no source and is not listed in
:data:`KEEP` with a reason.

Run from the repository root::

    python benchmarks/traffic_census.py          # or: make census

What counts as "reached":

* a function, when its code runs (``functools.wraps`` / ``@contextmanager``
  wrappers are unwrapped first);
* a class, when code defined in its body -- or in a subclass's -- runs.
  A dataclass ``__init__`` and a ``NamedTuple`` ``__new__`` are compiled
  from ``<string>``, so the hook attributes those calls to ``type(self)``
  and to ``_cls`` respectively;
* an alias (a public name for an object whose ``__name__`` differs), when
  code outside a ``src/repro`` module body loads that name: the object's
  own traffic belongs to its real name.

Exception classes (error paths) and plain constants carry no traffic of
their own and are not counted.

Two things make a naive census wrong.  pytest-benchmark switches the
profiler off while it times, so the benches run with
``--benchmark-disable``.  And some code is reached by exactly one source
(``decorrelate_statement`` only by the traced e2e run; the seeded random
fault plan only by ``shard --seed``), so skipping a source deletes live
code.  Keys are ``(co_filename, co_firstlineno)``, which Python 3.10
has (it lacks ``co_qualname``).
"""

from __future__ import annotations

import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Public names that no source reaches but that stay, each with its reason.
KEEP = {
    "project": "§2.3-§2.4 public form; MultiQueryProgressIndicator calls "
               "project_validated",
    "ProjectedQuery": "§2.3-§2.4 public form of project()'s result",
    "choose_victim_equal_priority": "§3.1 O(n) equal-priority case",
    "quiescent_time": "§3.3 drain time",
    "HashPartitioner": "order_preserving picks gather over pushdown; "
                       "ROADMAP item 3 merges the two strategies",
    "RangePartitioner": "order_preserving picks gather over pushdown; "
                        "ROADMAP item 3 merges the two strategies",
    "BreakerTransition": "no source ever opens a breaker: ROADMAP item 5(b)",
}

_E2E = [sys.executable, "benchmarks/e2e/run.py"]
_CLI = [sys.executable, "-m", "repro"]
_BENCHES = sorted(
    str(p.relative_to(ROOT)) for pattern in (
        "test_bench_fig*.py", "test_bench_table1*.py",
        "test_bench_ablation_*.py",
    ) for p in (ROOT / "benchmarks").glob(pattern)
)


def sources(tmp: Path) -> list[tuple[str, list[str]]]:
    """Every traffic source as ``(label, argv)``, run from the repo root."""
    trace = str(tmp / "trace.jsonl")
    out = [
        ("e2e --quick", _E2E + ["--quick"]),
        ("e2e --seconds 0", _E2E + ["--seconds", "0"]),
        ("e2e --quick --trace", _E2E + ["--quick", "--trace"]),
    ]
    out += [
        (f"example {p.stem}", [sys.executable, str(p.relative_to(ROOT))])
        for p in sorted((ROOT / "examples").glob("*.py"))
    ]
    out.append(("figure benches", [
        sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
        "--benchmark-disable", *_BENCHES,
    ]))
    out += [
        ("cli sql", _CLI + ["sql", "SELECT count(*) FROM lineitem"]),
        *[
            (f"cli experiment {name}",
             _CLI + ["experiment", name, "--runs", "2"])
            for name in ("mcq", "naq", "scq", "lambda", "adaptive",
                         "maintenance", "table1")
        ],
        ("cli report", _CLI + ["report", "--runs", "2",
                               "--out", str(tmp / "REPORT.md")]),
        ("cli report --observe", _CLI + ["report", "--observe",
                                         "--trace", trace]),
        ("cli report --validate-trace",
         _CLI + ["report", "--validate-trace", trace]),
        ("cli shard", _CLI + ["shard"]),
        ("cli shard --no-fault", _CLI + ["shard", "--no-fault",
                                         "--shards", "3"]),
        *[
            (f"cli shard --seed {seed}", _CLI + ["shard", "--seed", seed])
            for seed in ("1", "2", "3")
        ],
        ("cli overload", _CLI + ["overload"]),
        ("cli overload --unprotected", _CLI + ["overload", "--unprotected"]),
    ]
    return out


# The hook is written as sitecustomize.py into one directory per source
# and put first on PYTHONPATH, so every Python process the source starts
# (run.py starts one per workload) loads it and leaves one pickle per PID
# next to itself.
_HOOK = '''
import atexit, os, pickle, sys, threading

_PACKAGE = {package!r}
_ROOT = {root!r}
_OUT = os.path.dirname(os.path.abspath(__file__))
_FUNCTION = {function_flag!r}
_seen_codes = set()
_keep = []  # the code objects behind _seen_codes, so their ids stay unique
_calls = set()
_classes = set()
_names = set()


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code.co_filename == "<string>":
        if code.co_name == "__init__":
            owner = type(frame.f_locals.get("self"))
        elif code.co_name in ("<lambda>", "__new__"):
            owner = frame.f_locals.get("_cls")
        else:
            return
        if isinstance(owner, type):
            _classes.add((owner.__module__, owner.__qualname__))
        return
    key = id(code)
    if key in _seen_codes:
        return
    _seen_codes.add(key)
    _keep.append(code)
    filename = code.co_filename
    if filename.startswith(_PACKAGE):
        if code.co_name == "<module>":
            return
        if code.co_flags & _FUNCTION and not code.co_name.startswith("<"):
            _calls.add((filename, code.co_firstlineno))
    elif not filename.startswith(_ROOT):
        return
    _names.update(code.co_names)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    path = os.path.join(_OUT, "pid-%d.pickle" % os.getpid())
    with open(path, "wb") as fh:
        pickle.dump((_calls, _classes, _names), fh)


atexit.register(_dump)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def run_source(label: str, argv: list[str], hook_dir: Path) -> tuple:
    """Run one source under the hook; return its merged call record."""
    hook_dir.mkdir(parents=True)
    (hook_dir / "sitecustomize.py").write_text(
        _HOOK.format(package=str(PACKAGE) + os.sep, root=str(ROOT) + os.sep,
                     function_flag=inspect.CO_NEWLOCALS)
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook_dir), str(SRC), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"census source failed: {label} (exit "
                         f"{proc.returncode})")
    calls, classes, names = set(), set(), set()
    for path in hook_dir.glob("pid-*.pickle"):
        with open(path, "rb") as fh:
            c, k, n = pickle.load(fh)
        calls |= c
        classes |= k
        names |= n
    print(f"  {label:32} {time.perf_counter() - started:6.1f} s  "
          f"{len(calls):5d} functions", file=sys.stderr)
    return calls, classes, names


def public_names() -> dict[str, object]:
    """``repro.__all__`` plus every subpackage's ``__all__``, name -> object."""
    import repro

    modules = ["repro"] + [
        f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__)
        if m.ispkg
    ]
    names: dict[str, object] = {}
    for module_name in modules:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            names.setdefault(name, getattr(module, name))
    return names


def _code_key(fn) -> tuple[str, int] | None:
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno)


def _class_keys(cls: type) -> set[tuple[str, int]]:
    """Call keys of the code defined in *cls*'s own body."""
    keys = set()
    for attr in vars(cls).values():
        if isinstance(attr, property):
            parts = (attr.fget, attr.fset, attr.fdel)
        elif isinstance(attr, (staticmethod, classmethod)):
            parts = (attr.__func__,)
        else:
            parts = (attr,)
        for part in parts:
            if inspect.isfunction(part) and part.__code__.co_filename != "<string>":
                keys.add(_code_key(part))
    return keys


def _family(cls: type) -> list[type]:
    """*cls* and its subclasses defined under ``src/repro``."""
    out, stack = [], [cls]
    while stack:
        c = stack.pop()
        if c not in out:
            out.append(c)
            stack.extend(c.__subclasses__())
    return [c for c in out if c.__module__.split(".")[0] == "repro"]


def reached_by(name: str, obj, record: tuple) -> bool | None:
    """Whether one source's *record* reaches public *name* (None: not counted)."""
    calls, classes, names = record
    if inspect.isclass(obj) and issubclass(obj, BaseException):
        return None
    if getattr(obj, "__name__", name) != name:
        return name in names
    if inspect.isclass(obj):
        return any(
            (c.__module__, c.__qualname__) in classes
            or not _class_keys(c).isdisjoint(calls)
            for c in _family(obj)
        )
    if callable(obj):
        return _code_key(obj) in calls
    return None


def _function_codes(code):
    """Every named function compiled into *code* (what the hook counts)."""
    if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
        yield code
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _function_codes(const)


def main() -> int:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        tmp = Path(tmp)
        plan = sources(tmp)
        print(f"running {len(plan)} sources", file=sys.stderr)
        records = {
            label: run_source(label, cmd, tmp / f"hook-{i}")
            for i, (label, cmd) in enumerate(plan)
        }
    all_calls = set().union(*(r[0] for r in records.values()))
    src_functions = sum(
        1 for path in PACKAGE.rglob("*.py")
        for _ in _function_codes(compile(path.read_text(), str(path), "exec"))
    )
    print(f"{len(all_calls)} of {src_functions} functions under src/repro "
          f"reached")
    public = public_names()
    failures = 0
    for name, obj in sorted(public.items(), key=lambda kv: kv[0].lower()):
        verdicts = {label: reached_by(name, obj, record)
                    for label, record in records.items()}
        if None in verdicts.values():
            print(f"{name:34} (not counted)")
            continue
        hits = [label for label, hit in verdicts.items() if hit]
        if hits:
            print(f"{name:34} {len(hits):2d}  {', '.join(hits)}")
        elif name in KEEP:
            print(f"{name:34}  0  KEEP: {KEEP[name]}")
        else:
            print(f"{name:34}  0  UNREACHED")
            failures += 1
    for name in sorted(set(KEEP) - set(public)):
        print(f"{name:34} KEEP names no public name")
        failures += 1
    print(f"{failures} unreached public name(s) outside KEEP")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
