"""prismstrat: exact stratification calculus for de Rham crystals over O_K.

Everything downstream of a problem spec (p, Eisenstein E, rank, seeds,
truncation) is exact rational arithmetic; only the lambda-product layer
carries p-adic precision metadata.
"""

from .closedform import (
    FGTables,
    HTable,
    ak_series,
    closedform_series,
    conjecture_residual,
    h_table,
    verify_commutative,
)
from .cohomology import H0Solution, h0_dim_bound, h0_solve
from .cosimplicial import CDTable, CosimpCtx, cd_table, face_map, hensel_u0
from .field import FieldDesc, KElem, PadicApprox, field_init
from .matrix import KMat, charpoly, kernel_basis
from .sen import Lambda1, SenReport, lambda1_series, nearly_dR_report, sen_operator_matrix
from .series import SimplexRingElem, Trunc, binomial_power
from .stratification import (
    Seeds,
    StratTable,
    assemble_epsilon,
    check_near_HT,
    cocycle_residual,
    generate_Amn,
)

__version__ = "0.1.0"

__all__ = [
    "FieldDesc",
    "KElem",
    "PadicApprox",
    "field_init",
    "KMat",
    "charpoly",
    "kernel_basis",
    "Trunc",
    "SimplexRingElem",
    "binomial_power",
    "CosimpCtx",
    "CDTable",
    "hensel_u0",
    "cd_table",
    "face_map",
    "Seeds",
    "StratTable",
    "generate_Amn",
    "assemble_epsilon",
    "cocycle_residual",
    "check_near_HT",
    "FGTables",
    "HTable",
    "h_table",
    "closedform_series",
    "verify_commutative",
    "ak_series",
    "conjecture_residual",
    "H0Solution",
    "h0_solve",
    "h0_dim_bound",
    "Lambda1",
    "SenReport",
    "lambda1_series",
    "sen_operator_matrix",
    "nearly_dR_report",
    "__version__",
]
