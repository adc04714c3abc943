"""Exact spinoriality: do orthogonal representations lift to the spin group?

The public surface re-exports the root-datum constructors, fundamental-group
computation, the closed-form decision engine with its certificates, the
brute-force oracles, and the named group catalog.
"""

from .errors import (SpinorError, SpecificationError, IntegralityError,
                     GuardExceededError)
from .rootdata import (RootDatum, build_root_datum, simple_system,
                       expected_root_count)
from .fundgroup import FundGroupData, fundamental_group, p_value
from .repcalc import (weyl_dim, casimir_value, classify,
                      RepClassification, WeightMultiplicityTable,
                      freudenthal_multiplicities, L_phi,
                      dynkin_index, dynkin_index_orth,
                      FREUDENTHAL_GUARD_DEFAULT)
from .spinor import (OrthRep, orth_rep, Verdict, q_irreducible, q_rep,
                     q_tensor, is_spinorial, adjoint_spinorial,
                     q_via_weyl_sum, oracle_compare, descent_check,
                     dominant_orthogonal_weights, scan_periodicity,
                     WEYL_GUARD_DEFAULT)
from .catalog import (GroupSpec, Group, make_group, parse_group_name,
                      group_by_name, summary_check, known_aspinorial_witness,
                      sweep_all_spinorial, type_d_weight, type_d_table,
                      highest_root, CATALOG_RANK_LE_4, summary_suite_specs)

__all__ = [
    "SpinorError", "SpecificationError", "IntegralityError",
    "GuardExceededError",
    "RootDatum", "build_root_datum", "simple_system", "expected_root_count",
    "FundGroupData", "fundamental_group", "p_value",
    "weyl_dim", "casimir_value", "classify",
    "RepClassification", "WeightMultiplicityTable",
    "freudenthal_multiplicities", "L_phi",
    "dynkin_index", "dynkin_index_orth", "FREUDENTHAL_GUARD_DEFAULT",
    "OrthRep", "orth_rep", "Verdict", "q_irreducible", "q_rep", "q_tensor",
    "is_spinorial", "adjoint_spinorial",
    "q_via_weyl_sum", "oracle_compare", "descent_check",
    "dominant_orthogonal_weights", "scan_periodicity", "WEYL_GUARD_DEFAULT",
    "GroupSpec", "Group", "make_group", "parse_group_name", "group_by_name",
    "summary_check", "known_aspinorial_witness", "sweep_all_spinorial",
    "type_d_weight", "type_d_table", "highest_root", "CATALOG_RANK_LE_4",
    "summary_suite_specs",
]

__version__ = "0.1.0"
