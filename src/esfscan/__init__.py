"""Exact integrality scanning and non-integrality certification for
elementary symmetric functions of {1, 1/2, ..., 1/n} with one
reciprocal omitted."""

from .rational import (
    BACKEND,
    Rational,
    format_rational,
    is_integer,
    is_prime,
    make_rational,
    p_adic_valuation,
    parse_rational,
    reciprocal,
)
from .symfun import (
    EsfRow,
    OmitFirstColumn,
    compute_esf,
    compute_omit,
    esf_closed_form,
    esf_oracle,
    esf_row_advance,
    esf_row_start,
    esf_rows,
    k_cap,
    omit_closed_form,
    omit_first_column_advance,
    omit_first_column_start,
    omit_oracle,
    omit_sweep,
    omit_values,
)
from .primes import PrimeTable, sieve
from .certify import (
    Certificate,
    CertifyResult,
    ValuationCheck,
    certificate_threshold,
    certify_range,
    check_valuations,
    find_certificate,
    sample_certified_pairs,
    write_certificates,
)
from .theta import (
    MarginReport,
    ThetaBoundsReport,
    ThetaValue,
    case1_margin,
    check_theta_bounds,
    precision_bits,
    theta,
)
from .checkpoint import (
    CheckpointError,
    CheckpointRecord,
    IntegerHit,
    load_checkpoint,
    save_checkpoint,
)
from .scan import (
    KNOWN_HITS,
    ScanConfig,
    ScanError,
    ScanReport,
    WorkerStat,
    closed_form_triple_count,
    scan,
)

__version__ = "0.1.0"
