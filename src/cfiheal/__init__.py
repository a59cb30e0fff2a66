"""Self-healing build/test pipeline for strict forward-edge CFI deployment.

The package turns the usual showstoppers of -fsanitize=cfi adoption
(visibility-induced link breakage, opaque SIGILL aborts, hand-maintained
ignorelists) into a closed loop: build, repair, trace, escalate, report.
"""

from .build import (
    BuildKind,
    BuildMode,
    BuildOutcome,
    Diagnostic,
    DiagnosticKind,
    OrchestrationError,
    compose_flags,
    parse_diagnostics,
    run_build,
)
from .config import (
    CFI_VARIANTS,
    ConfigError,
    ProjectConfig,
    load_config,
    parse_config,
    render_config,
    validate_config,
)
from .escalation import EscalationEngine, Fault, Violation, ViolationStatus, enforcement_name
from .harness import (
    FailureClass,
    HarnessError,
    SuiteDiff,
    TestCase,
    TestResult,
    classify,
    diff_suites,
    enumerate_tests,
    run_suite,
)
from .ignorelist import (
    EntryKind,
    IgnorelistEntry,
    LadderLevel,
    parse,
    render,
)
from .ircensus import IrSiteCensus, census, census_by_function
from .pipeline import HealResult, PipelineFailure, cli_main, heal
from .repair import (
    RepairLedger,
    VisibilityPatch,
    extract_unresolved_symbols,
    repair_until_buildable,
    revert_patches,
)
from .report import (
    CoverageCore,
    CoverageTriple,
    EnforcementStatus,
    FunctionRecord,
    compute_coverage,
    emit_report,
    reconcile_percentages,
)
from .symbols import (
    Confidence,
    FunctionSpan,
    ResolutionError,
    SymbolInfo,
    Symbolizer,
)
from .tracing import (
    MemoryRegion,
    OutcomeKind,
    TraceOutcome,
    TrapEvent,
    TrapSignal,
    correct_pc,
    run_traced,
    run_traced_many,
    unwind_frames,
)

__version__ = "0.1.0"
