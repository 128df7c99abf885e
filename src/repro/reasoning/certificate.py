"""Certified answers: verifiable witnesses for positive decisions.

The paper's algorithm (Section 4.3) accepts by *constructing* a linear
proof tree level by level; the accepting run itself is therefore a
checkable certificate of ``c̄ ∈ cert(q, D, Σ)``.  This module turns the
trace of :func:`repro.reasoning.pwl_ward.decide_pwl_ward` into an
explicit :class:`Certificate` — the sequence of configurations together
with the operation (resolution ``r``, specialization ``s``; the ``d``
drops of database facts are folded into each configuration) that links
every consecutive pair — and re-verifies it from scratch:

* the first configuration is the instantiated query (modulo the eager
  drop of database facts);
* every transition is re-derivable as a resolution or specialization
  successor of its predecessor;
* every configuration respects the claimed node-width bound;
* the final configuration is the empty CQ.

Verification shares no state with the search that produced the
certificate (a fresh :class:`SuccessorGenerator` without the pruning
oracle re-derives every step), so a verifier can audit an answer
without trusting the decision engine — the practical face of
"acceptance = existence of a bounded-width linear proof tree"
(Theorem 4.8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.instance import Database
from ..core.program import Program
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant
from .pwl_ward import decide_pwl_ward
from .state import State, SuccessorGenerator

__all__ = [
    "Certificate",
    "CertificateError",
    "certified_decision",
    "extract_certificate",
    "verify_certificate",
]


class CertificateError(ValueError):
    """Raised when a certificate fails verification."""


@dataclass(frozen=True)
class Certificate:
    """An accepting run: configurations plus the linking operations.

    ``operations[i]`` produced ``states[i + 1]`` from ``states[i]``;
    its value is ``"resolution"`` or ``"specialization"``.
    """

    query: ConjunctiveQuery
    answer: Tuple[Constant, ...]
    states: Tuple[State, ...]
    operations: Tuple[str, ...]
    width_bound: int

    def __len__(self) -> int:
        return len(self.states)

    def max_width(self) -> int:
        return max((state.width() for state in self.states), default=0)


def _classify_transition(
    generator: SuccessorGenerator, state: State, successor: State
) -> Optional[str]:
    """Which operation derives *successor* from *state*, if any?"""
    for candidate in generator.resolutions(state):
        if candidate == successor:
            return "resolution"
    for candidate in generator.specializations(state):
        if candidate == successor:
            return "specialization"
    return None


def extract_certificate(
    query: ConjunctiveQuery,
    answer: Sequence[Constant],
    database: Database,
    program: Program,
    *,
    width_bound: Optional[int] = None,
    **search_kwargs,
) -> Optional[Certificate]:
    """Run the decision and package the accepting trace, if any.

    Returns ``None`` for negative decisions.  The returned certificate
    has already been labeled with operations (re-derived step by step),
    but callers should still :func:`verify_certificate` if they do not
    trust this process.
    """
    decision = decide_pwl_ward(
        query,
        answer,
        database,
        program,
        width_bound=width_bound,
        trace=True,
        **search_kwargs,
    )
    if not decision.accepted or decision.trace is None:
        return None
    normalized = program.single_head()
    # "both" covers guided and paper-literal specializations, whichever
    # mode the search actually ran with.
    generator = SuccessorGenerator(
        database, normalized, decision.width_bound,
        specialization="both", use_oracle=False,
    )
    operations: List[str] = []
    for state, successor in zip(decision.trace, decision.trace[1:]):
        operation = _classify_transition(generator, state, successor)
        if operation is None:
            raise CertificateError(
                "search produced an unexplainable transition "
                f"{state} → {successor}"
            )
        operations.append(operation)
    return Certificate(
        query=query,
        answer=tuple(answer),
        states=tuple(decision.trace),
        operations=tuple(operations),
        width_bound=decision.width_bound,
    )


def verify_certificate(
    certificate: Certificate,
    database: Database,
    program: Program,
) -> bool:
    """Re-check a certificate from scratch; raise CertificateError on
    any violation, return True otherwise.

    The verifier is deliberately independent: it rebuilds the initial
    configuration from (q, c̄, D), re-derives every transition with a
    fresh oracle-free successor generator, and checks the width bound
    and the accepting end.  Its cost is linear in the certificate
    length times the per-step successor enumeration — no search.
    """
    if not certificate.states:
        raise CertificateError("certificate has no configurations")
    if len(certificate.operations) != len(certificate.states) - 1:
        raise CertificateError(
            "operations do not align with configuration transitions"
        )

    normalized = program.single_head()
    expected_initial = State.make(
        certificate.query.instantiate(certificate.answer), database
    )
    if certificate.states[0] != expected_initial:
        raise CertificateError(
            "initial configuration does not match the instantiated query"
        )

    for index, state in enumerate(certificate.states):
        if state.width() > certificate.width_bound:
            raise CertificateError(
                f"configuration {index} exceeds the width bound "
                f"({state.width()} > {certificate.width_bound})"
            )

    generator = SuccessorGenerator(
        database, normalized, certificate.width_bound,
        specialization="both", use_oracle=False,
    )
    for index, (state, successor, claimed) in enumerate(
        zip(certificate.states, certificate.states[1:],
            certificate.operations)
    ):
        derived = _classify_transition(generator, state, successor)
        if derived is None:
            raise CertificateError(
                f"transition {index} is not derivable: {state} → {successor}"
            )
        if derived != claimed and claimed not in (
            "resolution", "specialization"
        ):
            raise CertificateError(
                f"transition {index} claims unknown operation {claimed!r}"
            )

    if not certificate.states[-1].is_accepting():
        raise CertificateError("final configuration is not the empty CQ")
    return True


def certified_decision(
    query: ConjunctiveQuery,
    answer: Sequence[Constant],
    database: Database,
    program: Program,
    **search_kwargs,
) -> Tuple[bool, Optional[Certificate]]:
    """Decide and, for positives, return an independently verified
    certificate.

    Positive answers come with a certificate that has passed
    :func:`verify_certificate`; negative answers return ``(False,
    None)`` (negatives have no succinct witness — NLogSpace is closed
    under complement, but the Immerman–Szelepcsényi certificate is far
    beyond practical interest here).
    """
    certificate = extract_certificate(
        query, answer, database, program, **search_kwargs
    )
    if certificate is None:
        return False, None
    verify_certificate(certificate, database, program)
    return True, certificate
