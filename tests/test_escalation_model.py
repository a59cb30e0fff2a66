"""Model-based test of the escalation engine and the ignorelist it renders.

A hypothesis state machine drives EscalationEngine the way heal() does:
traps are observed, each escalation round moves every open violation one
rung and re-tests it against the list that round built, and the
confirmation suite reopens a Fixed violation that traps again. A simulated
oracle says which ignorelist lines suppress which violation. Some functions
hold no CFI check, as the IR census would show, one carries a link-time
suffix, which no compile-time name has, and one file defines only functions
without a check, as its DWARF would show, so no line naming one of them
suppresses anything, and the engine never tries one.
"""

from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from cfiheal.escalation import EscalationEngine, Fault, ViolationStatus
from cfiheal.ignorelist import parse, render
from cfiheal.symbols import Confidence, SymbolInfo
from cfiheal.tracing import TrapEvent, TrapSignal

# A small world, so that violations share functions, files and entries often.
FUNCTIONS = ("f", "g", "h.1", "k")
CHECK_FREE = frozenset({"g", "k"})
FILES = ("a.c", "lib/b.c", "lib/c.c")
CHECK_FREE_FILES = frozenset({"lib/c.c"})
LINES = tuple(f"fun:{f}" for f in FUNCTIONS) + tuple(f"src:{f}" for f in FILES)
# The lines heal()'s holds_no_check predicate would say cannot change the build.
NO_CHECK_LINES = frozenset(f"fun:{f}" for f in CHECK_FREE) | frozenset(
    f"src:{f}" for f in CHECK_FREE_FILES
)
UNTRIED_LINES = NO_CHECK_LINES | {"fun:h.1"}
SUPPRESSING = tuple(line for line in LINES if line not in UNTRIED_LINES)

_frames = st.one_of(
    st.none(),
    st.builds(
        lambda function, file, line: SymbolInfo(
            function, file, line if file else None,
            Confidence.DEBUGINFO if file else Confidence.SYMBOL_TABLE,
        ),
        st.sampled_from(FUNCTIONS),
        st.one_of(st.none(), st.sampled_from(FILES)),
        st.integers(1, 2),
    ),
)


class EscalationModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = EscalationEngine(lambda violation, entry: entry.line in NO_CHECK_LINES)
        # The oracle: violation id -> the lines that suppress its trap.
        self.suppressors: dict[str, set[str]] = {}
        # Violation id -> the rungs at which its trap was seen again.
        self.recurred: dict[str, set[int]] = {}

    def rendered(self) -> set[str]:
        return set(render(self.engine.entries()).split())

    def held(self) -> dict[str, set[str]]:
        """Line -> ids of the violations that hold it: their current rung, once tried."""
        holders: dict[str, set[str]] = {}
        for v in self.engine.all_violations():
            if v.status is ViolationStatus.UNRESOLVABLE or not v.attempted:
                continue
            level, entry = v.attempted[-1]
            if level == v.ladder_level:
                holders.setdefault(entry.line, set()).add(v.id)
        return holders

    @rule(
        pc=st.integers(0, 3),
        frames=st.tuples(_frames, _frames, _frames),
        test_id=st.sampled_from(("t1", "t2", "t3")),
        suppressors=st.sets(st.sampled_from(SUPPRESSING)),
    )
    def observe(self, pc, frames, test_id, suppressors):
        trap = TrapEvent(TrapSignal.ILLEGAL_INSTRUCTION, pc, pc, (), {}, Path("app"), ())
        violation, new = self.engine.observe(trap, Fault(Path("app"), pc, *frames), test_id)
        if new:
            self.suppressors[violation.id] = suppressors
            self.recurred[violation.id] = set()

    @rule()
    def escalation_round(self):
        engine = self.engine
        pending = [v for v in engine.open_violations() if engine.next_scope(v) is not None]
        built = self.rendered()
        for v in pending:
            recurred = not self.suppressors[v.id] & built
            if recurred:
                self.recurred[v.id].add(v.ladder_level)
            engine.record_outcome(v, recurred)

    @rule(data=st.data())
    def confirmation(self, data):
        built = self.rendered()
        fixed = [v for v in self.engine.all_violations() if v.status is ViolationStatus.FIXED]
        if fixed and data.draw(st.booleans(), label="new path"):
            # A test reaches a Fixed violation's check by a path no built line covers.
            self.suppressors[data.draw(st.sampled_from(fixed)).id] -= built
        for v in fixed:
            if not self.suppressors[v.id] & built:
                self.recurred[v.id].add(v.ladder_level)
                self.engine.reopen(v)

    @invariant()
    def list_is_exactly_the_held_entries(self):
        # The list is the distinct claims, each once, and renders every one of them.
        claims = {v.claim for v in self.engine.all_violations()} - {None}
        assert {claim.line for claim in claims} == set(self.held())
        assert self.engine.entries() == sorted(claims, key=lambda entry: entry.line)
        assert self.rendered() == set(self.held())

    @invariant()
    def fixed_entries_are_rendered(self):
        rendered = self.rendered()
        for v in self.engine.all_violations():
            if v.status is ViolationStatus.FIXED:
                assert dict(v.attempted)[v.ladder_level].line in rendered

    @invariant()
    def fixed_violations_recurred_at_every_narrower_rung(self):
        for v in self.engine.all_violations():
            if v.status is ViolationStatus.FIXED:
                narrower = {level for level, _ in v.attempted if level < v.ladder_level}
                assert narrower <= self.recurred[v.id]

    @invariant()
    def no_untried_line_is_tried_or_rendered(self):
        for v in self.engine.all_violations():
            assert not {entry.line for _, entry in v.attempted} & UNTRIED_LINES
        assert not self.rendered() & UNTRIED_LINES

    @invariant()
    def no_violation_tries_a_line_twice(self):
        for v in self.engine.all_violations():
            lines = [entry.line for _, entry in v.attempted]
            assert len(lines) == len(set(lines))

    @invariant()
    def render_parse_is_a_fixpoint(self):
        text = render(self.engine.entries())
        assert render(parse(text)) == text


EscalationModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
test_escalation_model = EscalationModel.TestCase
