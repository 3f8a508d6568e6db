"""The traffic census gives every function under src/repro its own name."""

from benchmarks.traffic_census import _kept, _named_codes, function_table

TWINS = '''
def outer(flag):
    if flag:
        def runner():
            return 1
    else:
        def runner():
            def inner():
                return 2
            return inner()
    return runner
'''


def test_twin_closures_are_named_by_definition_order():
    names = [name for name, _ in _named_codes(compile(TWINS, "<twins>", "exec"))]
    assert names == [
        "outer", "outer.runner", "outer.runner[2]", "outer.runner[2].inner",
    ]


def test_every_function_under_src_has_its_own_name():
    functions, defined = function_table()
    names = [name for name, _ in functions.values()]
    assert len(names) == len(set(names))
    # The correlated runner and the InitPlan runner, the '/' and the '%'
    # closures: one KEEP key covers the second of each pair only.
    planner = "repro.engine.planner:Planner.plan_select.compile_subquery"
    binary = "repro.engine.expr:_bind_binary"
    for first, second in ((f"{planner}.runner", f"{planner}.runner[2]"),
                          (f"{binary}.apply", f"{binary}.apply[2]")):
        assert {first, second} <= defined
        assert _kept(second) == second
        assert _kept(first) is None
