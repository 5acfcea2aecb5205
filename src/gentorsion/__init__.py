"""Generalized torsion in finitely generated abelian-by-finite groups.

Exact decision of generalized torsion through the abelianization,
transversal-based witness certificates, generalized-exponent bounds,
positive-identity construction and verification (universal or sampled),
and a bounded minimal-order search, over interchangeable backends:
crystallographic extension data, the metabelian K(p^n, p^m) collection
engine, and a group-ring semidirect product for sampled-only checks.

Value types (elements, specs, reports, certificates, word nodes) are
records (``_record.Record``): tuple subclasses whose constructor and
field accessors are shared objects, so importing the package generates
and compiles no source.  Dataclasses and ``collections.namedtuple`` both
compile generated source for every class at import; for dataclasses
that, with the ``inspect`` and ``ast`` modules they load, cost more
than most CLI commands compute, and namedtuple's per-class ``eval`` was
over a quarter of the package's import.  Records are immutable, keep their
positional constructors, field names and reprs, and compare and hash as
tuples of their fields.  Word nodes compare with their class as well, so
``Conj(a, b) != Comm(a, b)``.  Nothing here imports ``typing`` or
``importlib.resources``, and the package has no data files: the catalog
specs are literals in ``catalog``.
"""

from .catalog import (
    FreeAbelExtInput,
    build_casolo_gamma,
    build_dihedral_infinite,
    build_free_abelianized_extension,
    build_K_group,
    build_klein_bottle,
    build_promislow,
    build_wreath,
    central_nontorsion_check,
    trivial_z_spec,
)
from .errors import BackendCapabilityError, GroupInputError, TheoremViolationError
from .extgroup import (
    ExtElement,
    ExtensionGroup,
    ExtensionSpec,
    direct_product,
    spec_from_dict,
    spec_to_dict,
    validate_extension,
)
from .gentor import (
    DirectProductGroup,
    ExponentBounds,
    SplitMix64,
    WitnessCertificate,
    gen_exponent_bounds,
    gen_order_lower_bound,
    gen_order_search,
    is_fully_generalized_torsion,
    is_generalized_torsion,
    positive_identity_witnesses,
    random_word_element,
    verify_identity_sampled,
    verify_identity_universal,
    witness_construct,
)
from .intlin import (
    AbelianStructure,
    IntMatrix,
    SmithDecomposition,
    cokernel_structure,
    element_order_in_cokernel,
    hermite_normal_form,
    smith_normal_form,
    solve_integer_linear,
)
from .metab import MetabElement, MetabGroup, build_K
from .words import WordSyntaxError, eval_word, parse_word, print_word

__version__ = "1.0.0"

__all__ = [
    "AbelianStructure",
    "BackendCapabilityError",
    "DirectProductGroup",
    "ExponentBounds",
    "ExtElement",
    "ExtensionGroup",
    "ExtensionSpec",
    "FreeAbelExtInput",
    "GroupInputError",
    "IntMatrix",
    "MetabElement",
    "MetabGroup",
    "SmithDecomposition",
    "SplitMix64",
    "TheoremViolationError",
    "WitnessCertificate",
    "WordSyntaxError",
    "build_K",
    "build_K_group",
    "build_casolo_gamma",
    "build_dihedral_infinite",
    "build_free_abelianized_extension",
    "build_klein_bottle",
    "build_promislow",
    "build_wreath",
    "central_nontorsion_check",
    "cokernel_structure",
    "direct_product",
    "element_order_in_cokernel",
    "eval_word",
    "gen_exponent_bounds",
    "gen_order_lower_bound",
    "gen_order_search",
    "hermite_normal_form",
    "is_fully_generalized_torsion",
    "is_generalized_torsion",
    "parse_word",
    "positive_identity_witnesses",
    "print_word",
    "random_word_element",
    "smith_normal_form",
    "solve_integer_linear",
    "spec_from_dict",
    "spec_to_dict",
    "trivial_z_spec",
    "validate_extension",
    "verify_identity_sampled",
    "verify_identity_universal",
    "witness_construct",
]
