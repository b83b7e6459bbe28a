"""
Control-plane message and trace types shared by both architectures, and
attach and every handover sequence as a table of (kind, src role, dst
role, via_core, via_hop) steps. ``control`` (edge-routed) and ``lte`` (S1)
run the tables through ``HandoverTrace.emit``, and the load experiment
takes its per-message core flags from them.
"""
import enum
from collections import Counter
from dataclasses import dataclass, field


class Kind(str, enum.Enum):
    # attach
    ATTACH_REQUEST = "AttachRequest"
    AUTH_CHALLENGE = "AuthChallenge"
    AUTH_RESPONSE = "AuthResponse"
    ATTACH_ACCEPT = "AttachAccept"
    # handover (shared vocabulary)
    HO_REQUIRED = "HoRequired"
    HO_REQUEST = "HoRequest"
    HO_REQUEST_ACK = "HoRequestAck"
    HO_COMMAND = "HoCommand"
    HO_CONFIRM = "HoConfirm"
    HO_COMPLETE_NOTIFY = "HoCompleteNotify"
    UE_CONTEXT_RELEASE = "UeContextRelease"
    # LTE-only
    CREATE_INDIRECT_TUNNEL_REQ = "CreateIndirectTunnelReq"
    CREATE_INDIRECT_TUNNEL_RESP = "CreateIndirectTunnelResp"
    ENB_STATUS_TRANSFER = "eNBStatusTransfer"
    MME_STATUS_TRANSFER = "MMEStatusTransfer"
    HO_NOTIFY = "HoNotify"
    MODIFY_BEARER_REQ = "ModifyBearerReq"
    MODIFY_BEARER_RESP = "ModifyBearerResp"
    UE_CONTEXT_RELEASE_COMMAND = "UeContextReleaseCommand"
    UE_CONTEXT_RELEASE_COMPLETE = "UeContextReleaseComplete"


@dataclass
class ControlMessage:
    kind: Kind
    src: str
    dst: str
    via_core: bool = False
    payload: dict = field(default_factory=dict)
    time_us: int = 0


class HandoverMode(str, enum.Enum):
    ATTACH = "Attach"
    CORE_ASSISTED = "CoreAssisted"
    DIRECT = "Direct"
    LTE_S1 = "LteS1"


@dataclass
class HandoverTrace:
    mode: HandoverMode
    messages: list = field(default_factory=list)
    failed: bool = False

    def emit(self, step, ids, now_us, payload=None):
        """Append the message of one table step and return it. `ids` binds
        roles to element ids; an unbound role names the element itself."""
        kind, src, dst, via_core, _ = step
        msg = ControlMessage(kind, ids.get(src, src), ids.get(dst, dst),
                             via_core, payload or {}, now_us)
        self.messages.append(msg)
        return msg

    def __len__(self):
        return len(self.messages)

    def to_csv_rows(self):
        """Rows of (seq, time_us, kind, src, dst, via_core)."""
        return [
            (i, m.time_us, m.kind.value, m.src, m.dst, int(m.via_core))
            for i, m in enumerate(self.messages)
        ]

    def sequence_chart(self):
        """Plain-text message sequence chart, one arrow per line."""
        lines = [f"# {self.mode.value}" + (" (FAILED)" if self.failed else "")]
        for i, m in enumerate(self.messages):
            core = " [core]" if m.via_core else ""
            lines.append(f"{i + 1:2d}. {m.src} -> {m.dst}: {m.kind.value}{core}")
        return "\n".join(lines)


# Roles a sequence step names; the procedure binds each to an element id.
SRC, TGT, UE, HOP = "src", "tgt", "ue", "hop"
SME, MME, SGW = "sme", "mme", "sgw"


def _steps(rows, anchored=False):
    """(kind, src, dst) rows -> (kind, src, dst, via_core, via_hop) steps.

    Every message of an anchored (S1) sequence is via core, even the
    UE-facing ones, which exist only as legs of MME-driven exchanges; an
    edge-routed message is via core when it touches the SME. A message
    between the two base stations goes through the relay."""
    return tuple((kind, a, b, anchored or SME in (a, b), {a, b} == {SRC, TGT})
                 for kind, a, b in rows)


ATTACH_SEQUENCE = _steps((
    (Kind.ATTACH_REQUEST, UE, SME),
    (Kind.AUTH_CHALLENGE, SME, UE),
    (Kind.AUTH_RESPONSE, UE, SME),
    (Kind.ATTACH_ACCEPT, SME, UE),
))

# Reconstructed S1 handover: 15 messages, all core-side.
S1_SEQUENCE = _steps((
    (Kind.HO_REQUIRED, SRC, MME),
    (Kind.HO_REQUEST, MME, TGT),
    (Kind.HO_REQUEST_ACK, TGT, MME),
    (Kind.CREATE_INDIRECT_TUNNEL_REQ, MME, SGW),
    (Kind.CREATE_INDIRECT_TUNNEL_RESP, SGW, MME),
    (Kind.HO_COMMAND, MME, SRC),
    (Kind.HO_COMMAND, SRC, UE),
    (Kind.ENB_STATUS_TRANSFER, SRC, MME),
    (Kind.MME_STATUS_TRANSFER, MME, TGT),
    (Kind.HO_CONFIRM, UE, TGT),
    (Kind.HO_NOTIFY, TGT, MME),
    (Kind.MODIFY_BEARER_REQ, MME, SGW),
    (Kind.MODIFY_BEARER_RESP, SGW, MME),
    (Kind.UE_CONTEXT_RELEASE_COMMAND, MME, SRC),
    (Kind.UE_CONTEXT_RELEASE_COMPLETE, SRC, MME),
), anchored=True)

# Edge-routed handover: a mode-specific prefix up to the target's
# admission decision, then a tail shared by both modes.
EDGE_PREFIX = {
    HandoverMode.CORE_ASSISTED: _steps(((Kind.HO_REQUIRED, SRC, SME),
                                        (Kind.HO_REQUEST, SME, TGT))),
    HandoverMode.DIRECT: _steps(((Kind.HO_REQUIRED, SRC, TGT),)),
}
EDGE_TAIL = _steps((
    (Kind.HO_REQUEST_ACK, TGT, SRC),
    (Kind.HO_COMMAND, SRC, UE),
    (Kind.HO_CONFIRM, UE, TGT),
    (Kind.HO_COMPLETE_NOTIFY, TGT, SRC),
    (Kind.UE_CONTEXT_RELEASE, SRC, HOP),
))


def count_messages(trace):
    """Tally a trace: (per-kind Counter, count of core-traversing messages)."""
    kinds = Counter(m.kind for m in trace.messages)
    via_core = sum(1 for m in trace.messages if m.via_core)
    return kinds, via_core
