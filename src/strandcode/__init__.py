"""Codes for reconstructing data from overlapping noisy fragments.

The package builds up from packed bit sequences and constrained codecs to
full encode/decode pipelines for single and multiple strands, plus the
channel models and search oracles used to validate them.
"""

from .bitseq import (
    BitSeq,
    hamming,
    is_sd,
    is_wwl,
    majority_merge,
)
from .channel import (
    ChannelConfig,
    Fragment,
    Trace,
    check_trace_legal,
    corrupt,
    fragment,
    is_reliable,
    trace_from_text,
    trace_to_text,
    trace_votes,
)
from .constrained import (
    apply_dist,
    auto_cyclic,
    ConstrainedCodec,
    enc_dist,
    index_wwl,
    index_wwl_decode,
    index_wwl_len,
)
from .errors import (
    DecodeFailure,
    InfeasibleParameters,
    LayoutError,
    SearchExhausted,
    StrandcodeError,
    require_feasible,
)
from .multistrand import (
    MultiGamma0Params,
    StrandSet,
    derive_multi_gamma0_params,
    encode_multi_gamma0_rs,
    fragment_strands,
    multi_gamma0_book,
    multi_gamma0_decode,
    multi_gamma0_encode,
    multi_gamma0_locate,
    multi_gamma0_message_len,
    multi_gamma0_rs_message_len,
    reconstruct_multi_gamma0_rs,
    strandset_from_json,
    strandset_to_json,
    wrap_attribute,
    wrap_decode,
    wrap_encode,
    wrap_length,
    wrap_reconstruct,
    wrap_remainder,
)
from .oracle import (
    bound_multi,
    bound_multi_gamma0,
    bound_single,
    check_modular_rps,
    check_p123,
    check_sd_exhaustive,
    check_wwl_exhaustive,
)
from .positioning import (
    IndexBook,
    book_from_json,
    book_to_json,
    build_index_book,
    certify_book,
    find_marker,
    locate_index,
)
from .sd_encoder import (
    SdParams,
    decode_sd,
    derive_sd_params,
    encode_sd,
    sd_message_len,
)
from .trace_codes import (
    Gamma0Params,
    ReconReport,
    TraceParams,
    derive_gamma0_params,
    derive_trace_params,
    encode_gamma0,
    encode_trace,
    encode_trace_rs,
    gamma0_book,
    gamma0_message_len,
    reconstruct_gamma0,
    reconstruct_trace,
    reconstruct_trace_rs,
    trace_book,
    trace_message_len,
    trace_rs_message_len,
)

__version__ = "0.1.0"
