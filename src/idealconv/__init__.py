"""Computable ideal convergence at desk scale.

Symbolic subsets of N with exact prefix evaluation, lower semicontinuous
submeasures and their exhaustive ideals, meagerness witnesses, cluster and
limit point classification for rational-box sequences, constructive
subsequence/rearrangement builders with exact audits, and finite-extension
games whose winning moves carry rational certificates.

Quick start::

    from idealconv import builtin, zoo, gamma_estimate, AnalysisParams

    Z = builtin("density-zero")
    report = gamma_estimate(zoo.char_powers2(), Z, AnalysisParams())
    report.points()          # [(Fraction(0, 1),)]
"""

from . import _lazy

_lazy.lazy_numpy()      # a missing numpy raises ImportError here

# each exported name, by its defining module; a name's module is imported on
# the first read of the name (PEP 562), so ``import idealconv`` and each CLI
# command load only the modules they run
_EXPORTS = {
    "natset": ("BlockPartition", "BlockUnion", "Cofinite", "Complement",
               "Finite", "HorizonExceeded", "Intersection", "NatSet",
               "PowersOf", "PrefixBitmap", "Progression", "Tested", "Union",
               "partition_from_tag"),
    "submeasure": ("CountingCap", "DensityFamily", "Lscsm", "NormEstimate",
                   "RunningDensity", "WeightedSum", "norm_estimate", "phi"),
    "ideals": ("Decision", "DecisionParams", "IdealHandle", "Verdict",
               "builtin", "builtin_names", "decide_membership", "nu2"),
    "meager": ("WitnessIntervals", "WitnessRefuted", "build_witness",
               "fk_holds", "verify_witness"),
    "sequences": ("Alphabet", "AnalysisParams", "ClusterReport",
                  "ConvergenceReport", "RadiusSchedule", "SequenceSpec",
                  "complement_indicator_set", "gamma_estimate",
                  "ideal_convergence_check", "indicator_set",
                  "lambda_estimate", "lambda_q_estimate",
                  "limit_points_estimate", "u_frak"),
    "transforms": ("BuildResult", "ExhaustedA", "HypothesisFailed",
                   "MassUnavailable", "NotALimitPoint", "PermutationMap",
                   "SubsequenceMap", "TailRule", "apply", "cluster_adding_pi",
                   "cluster_adding_sigma", "cluster_preserving_pi",
                   "cluster_preserving_sigma", "generic_permutation",
                   "generic_subsequence", "identity_sigma",
                   "limit_witness_extraction", "odd_even_swap", "preimage",
                   "random_pi", "random_sigma"),
    "games": ("GameTarget", "GameTranscript", "SupplyExhausted", "run_game"),
    "zoo": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return _lazy.load(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_lazy.load(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
