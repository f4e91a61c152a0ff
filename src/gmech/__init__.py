"""Desk-scale laboratory for nonlinear dynamic pricing mechanisms.

Prices claims with payout streams by backward induction on a binomial
lattice, verifies the structural laws of pricing mechanisms as executable
properties, recovers a mechanism's generating function from black-box
prices, and audits option chains against the domination criterion.
"""

from .errors import (
    BadStepOrder,
    BoundViolated,
    ChainDataError,
    ContractionViolation,
    DominationViolated,
    EmptyChain,
    GmechError,
    InvalidParams,
    InvariantError,
    NegativeMu,
    NonFiniteValue,
    NonPositiveHorizon,
    NotSupermartingale,
    ParseError,
    PicardDivergence,
    SchemaError,
    SchemeNotMonotone,
    StepOutOfRange,
    ZeroSteps,
)
from .lattice import (
    AdaptedProcess,
    Lattice,
    TimeGrid,
    build_grid,
    build_lattice,
)
from .generators import (
    BSMarketParams,
    Generator,
    GeneratorFlags,
    LipschitzReport,
    PropertyVerdict,
    StructureReport,
    abs_z_generator,
    black_scholes_generator,
    classify_generator,
    domination_generator,
    linear_generator,
    verify_lipschitz,
    zero_generator,
)
from .engine import (
    ComparisonVerdict,
    DividendStream,
    DominationVerdict,
    MechanismHandle,
    PricingResult,
    TerminalClaim,
    as_mechanism,
    check_domination,
    claim_from_values,
    compare,
    make_underlying_map,
    random_claim,
    solve_bsde,
    solve_terminal_batch,
)
from .analysis import (
    AxiomCheck,
    AxiomReport,
    DecompositionResult,
    MainTheoremVerdict,
    ProbePath,
    RecoveredGenerator,
    RepresentationResult,
    axiom_suite,
    build_probe_path,
    doob_meyer,
    infinitesimal_probe,
    pairwise_representation_gap,
    recover_generator,
    represent,
    verify_main_theorem,
    z_probe,
)
from .market import (
    DominationReport,
    OptionChain,
    bs_call,
    bs_put,
    load_chain,
    run_domination_test,
    synth_chain,
)

__version__ = "0.1.0"
