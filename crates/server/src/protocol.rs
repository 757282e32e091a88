//! The fsdl wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! frame   := len:u32le  payload[len]
//! request := opcode:u8  body
//! reply   := status:u8  body        (status 0 = ok, 1 = error)
//! ```
//!
//! All integers are little-endian. Distances ride as raw `u32` with
//! `u32::MAX` meaning [`Dist::INFINITE`] (exactly the in-memory sentinel,
//! so a wire round trip is bit-identical). The protocol is deliberately
//! positional and fixed-width — no self-describing tags — because the
//! labels are self-contained and a query needs nothing but vertex ids.
//!
//! Decoding is total: any byte string either parses into a typed message
//! or returns a [`WireError`]; it never panics and never reads past the
//! frame (`decode` rejects trailing bytes, so a bit flip in a length
//! field cannot silently desynchronize a connection).
//!
//! ## Where a message is declared
//!
//! Once, in a table; its encode, its decode and its decode errors derive
//! from that one declaration:
//!
//! - the `messages!` table gives each opcode one entry: its kind name and
//!   its [`Request`] and [`Response`] variants, with their docs and their
//!   fields in wire order. It declares both enums, and maps each response
//!   variant to its payload type, which [`crate::Client`]'s typed helpers
//!   read back;
//! - each reply struct is one `wire_struct!` entry: its fields in wire
//!   order, with their docs;
//! - the `error_codes!` table gives each [`ErrorCode`] its number and name.
//!
//! A field rides in its type's `Wire` form: integers as themselves, lists
//! (ids, byte payloads) behind a `u32` count, strings behind a `u16`
//! length, a [`WireFaults`] behind two `u16` counts. `[max M]` after a
//! list field caps its count; `[len N]` says an earlier field implies it,
//! so none is sent. Every count is checked against its cap and the bytes
//! left before anything is allocated, and a decode error names the field
//! it stopped at as `"<kind> <field>"` (`"label-fetch labels"`). To add a
//! field, add its line to its entry at its wire position, and its bytes to
//! `every_message_encodes_to_its_golden_bytes`.
//!
//! ## Saturation sentinel
//!
//! Several reply fields narrow in-memory `usize`/`u64` counters to `u32`
//! on the wire (`sketch_vertices`, `sketch_edges`, `hops`, `header_bits`,
//! `active_faults`). A value that does not fit is sent as **`u32::MAX`**,
//! the saturation sentinel — a reader seeing `u32::MAX` in one of these
//! fields must treat it as "at least 2³²−1", never as an exact count.
//! (For `QueryReply::distance` the same bit pattern is the infinity
//! sentinel, which is consistent: an unrepresentably large distance *is*
//! effectively infinite.) Values below the sentinel are always exact.
//!
//! ## The label plane
//!
//! A label is its point lists plus its generation's level edge sets
//! restricted to them (`fsdl_labels::EdgeSets`). Shards store the edge
//! sets once and a points record per vertex, and serve `label-fetch`,
//! `edge-sets` and `point-fetch` over them ([`Request::LabelFetch`],
//! [`Request::EdgeSets`] and [`Request::PointFetch`] say what each
//! returns); a static server serves the same three as a one-shard backend.

use std::io::{Read, Write};

use fsdl_graph::{Dist, FaultSet, NodeId};
use fsdl_labels::QueryAnswer;

use crate::plane::Totals;

/// Hard ceiling on a frame's payload length. A frame claiming more than
/// this is a protocol error: the connection's framing can no longer be
/// trusted (the length itself may be corrupt), so servers answer with a
/// typed error and close that connection only.
pub const MAX_FRAME: u32 = 1 << 20;

/// Ceiling on the number of queries in one batch frame.
pub const MAX_BATCH: u32 = 4096;

/// Ceiling on per-query fault-set size on the wire (vertices and edges
/// each). Far above any plausible `|F|`; exists so a corrupt count can't
/// make the decoder loop for gigabytes.
pub const MAX_WIRE_FAULTS: u16 = u16::MAX;

/// Ceiling on vertex ids in one label-fetch frame. A scatter-gather
/// round fetches at most `2 + 2·|F|` labels per query, so this bounds a
/// router's per-shard coalescing, not a client-visible limit.
pub const MAX_LABEL_FETCH: u32 = 4096;

/// Frame ceiling for *label-plane replies* (label-fetch responses read
/// by routers and blocking clients). Encoded labels are `poly(1/eps,
/// log n)` bytes and legitimately reach hundreds of kilobytes each on
/// dense parameter settings, so a multi-label reply cannot live under
/// [`MAX_FRAME`]; id counts bound nothing when the per-id payload is
/// unbounded. Requests and all non-label replies stay under
/// [`MAX_FRAME`] — this larger cap applies only where the reader
/// expects label bytes, and still bounds what a corrupt length field
/// can make a reader allocate.
pub const MAX_LABEL_FRAME: u32 = 1 << 26;

/// Soft byte budget on the encoded label bytes packed into one
/// label-fetch reply. Servers answer with the longest *prefix* of the
/// requested ids whose labels fit the budget — always at least one, so
/// a fetch makes progress even when a single label exceeds the budget
/// (one label must still fit [`MAX_LABEL_FRAME`], which is ~64x this).
/// Readers that receive a short reply re-request the tail; see
/// [`LabelFetchReply`].
pub const LABEL_FETCH_BYTE_BUDGET: usize = 1 << 20;

/// Reply status bytes.
mod status {
    pub const OK: u8 = 0x00;
    pub const ERR: u8 = 0x01;
}

/// Declares [`ErrorCode`] once: each code's doc, wire number and name.
macro_rules! error_codes {
    ($($(#[doc = $doc:literal])+ $code:ident = $raw:literal $name:literal,)+) => {
        /// Typed error codes carried by error replies.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum ErrorCode {
            $($(#[doc = $doc])+ $code = $raw,)+
        }

        impl std::fmt::Display for ErrorCode {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(match self {
                    $(ErrorCode::$code => $name,)+
                })
            }
        }

        /// The code as its number.
        impl Wire for ErrorCode {
            fn put(&self, buf: &mut Vec<u8>) {
                (*self as u8).put(buf);
            }

            fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError> {
                match u8::get(r, field)? {
                    $($raw => Ok(ErrorCode::$code),)+
                    raw => Err(WireError::BadDiscriminant("error code", raw)),
                }
            }
        }
    };
}

error_codes! {
    /// The payload did not parse (truncated body, trailing bytes, bad
    /// counts, bad UTF-8).
    Malformed = 1 "malformed",
    /// The frame length exceeded [`MAX_FRAME`].
    Oversized = 2 "oversized",
    /// Unknown opcode byte.
    UnknownOpcode = 3 "unknown-opcode",
    /// The request parsed but names out-of-range vertices or non-edges.
    BadRequest = 4 "bad-request",
    /// The operation is not available in the server's mode (e.g. `update`
    /// against a static oracle).
    UnsupportedInMode = 5 "unsupported-in-mode",
    /// A dynamic update was rejected by the oracle (typed
    /// `DynamicError`, relayed).
    UpdateRejected = 6 "update-rejected",
    /// The server failed internally: a worker that panics answering a
    /// frame sends this, so a bug surfaces as a reply, not a dropped or
    /// hung connection.
    Internal = 7 "internal",
    /// The connection started a frame but did not finish it within the
    /// server's frame-completion deadline (slow-loris protection); the
    /// server sends this and closes the connection.
    DeadlineExceeded = 8 "deadline-exceeded",
    /// A backend this request depends on is down (a router answering for
    /// an unreachable shard). The request may succeed on retry once the
    /// backend returns; the client connection stays open.
    Unavailable = 9 "unavailable",
}

/// Decode failures. Every variant is a *typed* rejection: the decoder
/// consumed untrusted bytes and stopped, nothing panicked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field named here.
    Truncated(&'static str),
    /// Bytes remained after a complete message.
    TrailingBytes(usize),
    /// Unknown request opcode.
    UnknownOpcode(u8),
    /// Unknown reply status byte.
    UnknownStatus(u8),
    /// A count field exceeded its ceiling.
    TooMany {
        /// What was being counted.
        what: &'static str,
        /// The claimed count.
        count: u64,
        /// The ceiling it exceeded.
        max: u64,
    },
    /// An embedded string was not UTF-8.
    BadUtf8,
    /// Unknown update-kind or route-status discriminant.
    BadDiscriminant(&'static str, u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated(field) => write!(f, "payload truncated at {field}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after message"),
            WireError::UnknownOpcode(b) => write!(f, "unknown opcode {b:#04x}"),
            WireError::UnknownStatus(b) => write!(f, "unknown status {b:#04x}"),
            WireError::TooMany { what, count, max } => {
                write!(f, "{what} count {count} exceeds limit {max}")
            }
            WireError::BadUtf8 => write!(f, "embedded string is not UTF-8"),
            WireError::BadDiscriminant(what, b) => {
                write!(f, "unknown {what} discriminant {b:#04x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The error code a server should answer with for this decode failure.
    pub fn code(&self) -> ErrorCode {
        match self {
            WireError::UnknownOpcode(_) => ErrorCode::UnknownOpcode,
            _ => ErrorCode::Malformed,
        }
    }
}

// ---------------------------------------------------------------------
// Field codecs
// ---------------------------------------------------------------------

/// A field type's wire form: how one value is appended to a payload and
/// read back. `field` names the field for the error a short payload gets.
trait Wire: Sized {
    /// The fewest bytes one value takes on the wire.
    const MIN: usize = 1;

    fn put(&self, buf: &mut Vec<u8>);

    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError>;

    /// A run of values (bytes override it with one bulk copy).
    fn put_all(items: &[Self], buf: &mut Vec<u8>) {
        items.iter().for_each(|item| item.put(buf));
    }

    /// `count` values, refused as truncated before anything is allocated
    /// when the bytes left cannot hold them (bytes override it with one
    /// bulk copy).
    fn get_all(
        r: &mut Reader<'_>,
        count: usize,
        field: &'static str,
    ) -> Result<Vec<Self>, WireError> {
        if count > (r.bytes.len() - r.pos) / Self::MIN {
            return Err(WireError::Truncated(field));
        }
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(Self::get(r, field)?);
        }
        Ok(items)
    }
}

impl Wire for u8 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(*self);
    }

    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError> {
        Ok(r.take(1, field)?[0])
    }

    fn put_all(bytes: &[u8], buf: &mut Vec<u8>) {
        buf.extend_from_slice(bytes);
    }

    fn get_all(
        r: &mut Reader<'_>,
        count: usize,
        field: &'static str,
    ) -> Result<Vec<u8>, WireError> {
        // take() bounds the count against the frame, so a corrupt length
        // field is Truncated, not an allocation.
        Ok(r.take(count, field)?.to_vec())
    }
}

macro_rules! wire_int {
    ($($int:ty),+) => {$(
        impl Wire for $int {
            const MIN: usize = std::mem::size_of::<$int>();

            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError> {
                const N: usize = std::mem::size_of::<$int>();
                let mut raw = [0; N];
                raw.copy_from_slice(r.take(N, field)?);
                Ok(<$int>::from_le_bytes(raw))
            }
        }
    )+};
}

wire_int!(u16, u32, u64);

macro_rules! wire_tuple {
    ($($part:ident $index:tt),+) => {
        impl<$($part: Wire),+> Wire for ($($part,)+) {
            const MIN: usize = 0 $(+ $part::MIN)+;

            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$index.put(buf);)+
            }

            fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError> {
                Ok(($($part::get(r, field)?,)+))
            }
        }
    };
}

wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// A list behind its `u32` count: an id list, or a byte payload (one bulk
/// copy each way). A field declared `[max M]` refuses a count over `M`.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 4;

    fn put(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).put(buf);
        T::put_all(self, buf);
    }

    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError> {
        at_most(r, field, u32::MAX)
    }
}

/// A list behind its `u32` count, of at most `max` items.
fn at_most<T: Wire>(
    r: &mut Reader<'_>,
    field: &'static str,
    max: u32,
) -> Result<Vec<T>, WireError> {
    let count = u32::get(r, field)?;
    if count > max {
        return Err(WireError::TooMany {
            what: field,
            count: u64::from(count),
            max: u64::from(max),
        });
    }
    T::get_all(r, count as usize, field)
}

/// A string behind its `u16` byte length. An over-long string is cut at
/// the last char boundary at or below 65 535 bytes, so it stays UTF-8.
impl Wire for String {
    const MIN: usize = 2;

    fn put(&self, buf: &mut Vec<u8>) {
        let mut len = self.len().min(usize::from(u16::MAX));
        while !self.is_char_boundary(len) {
            len -= 1;
        }
        (len as u16).put(buf);
        buf.extend_from_slice(&self.as_bytes()[..len]);
    }

    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError> {
        let len = u16::get(r, field)?;
        std::str::from_utf8(r.take(usize::from(len), field)?)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8)
    }
}

/// The derived codec of one field list: a `wire_struct!` entry's, or a
/// variant's in a `messages!` entry. A field is `name: Type`, then
/// optionally `[max M]` (a list of at most `M` items) or `[len N]` (exactly
/// `N` items and no count on the wire: an earlier field implies it). A
/// tuple variant's one field is named too, for its decode errors.
macro_rules! fields {
    (@pat $enum:ident $variant:ident { $($(#[$m:meta])* $f:ident: $t:ty $([$($c:tt)+])?),* $(,)? }) => {
        $enum::$variant { $($f),* }
    };
    (@pat $enum:ident $variant:ident ($f:ident: $t:ty $([$($c:tt)+])?)) => {
        $enum::$variant($f)
    };
    (@any $enum:ident $variant:ident { $($body:tt)* }) => { $enum::$variant { .. } };
    (@any $enum:ident $variant:ident ( $($body:tt)* )) => { $enum::$variant(..) };
    (@put $buf:ident { $($(#[$m:meta])* $f:ident: $t:ty $([$($c:tt)+])?),* $(,)? }) => {
        $(fields!(@put1 $buf $f $($($c)+)?);)*
    };
    (@put $buf:ident ($f:ident: $t:ty $([$($c:tt)+])?)) => {
        fields!(@put1 $buf $f $($($c)+)?)
    };
    (@put1 $buf:ident $f:ident $(max $max:expr)?) => { Wire::put($f, $buf) };
    (@put1 $buf:ident $f:ident len $len:expr) => {{
        debug_assert_eq!($f.len(), $len, "a run's length must match its length field");
        Wire::put_all($f, $buf)
    }};
    (@get $r:ident $owner:literal $enum:ident $variant:ident
        { $($(#[$m:meta])* $f:ident: $t:ty $([$($c:tt)+])?),* $(,)? }) => {
        $enum::$variant { $($f: fields!(@get1 $r concat!($owner, " ", stringify!($f)) $(, $($c)+)?)),* }
    };
    (@get $r:ident $owner:literal $enum:ident $variant:ident ($f:ident: $t:ty $([$($c:tt)+])?)) => {
        $enum::$variant(fields!(@get1 $r concat!($owner, " ", stringify!($f)) $(, $($c)+)?))
    };
    (@get1 $r:ident $field:expr) => { Wire::get($r, $field)? };
    (@get1 $r:ident $field:expr, max $max:expr) => { at_most($r, $field, $max)? };
    (@get1 $r:ident $field:expr, len $len:expr) => { Wire::get_all($r, $len, $field)? };
    (@reply $variant:ident $body:tt) => {
        impl Reply for fields!(@type $body) {
            fn from_response(response: Response) -> Result<Self, Response> {
                match response {
                    fields!(@pat Response $variant $body) => Ok(fields!(@value $body)),
                    other => Err(other),
                }
            }
        }
    };
    (@type {}) => { () };
    (@type { $(#[$m:meta])* $f:ident: $t:ty $([$($c:tt)+])? $(,)? }) => { $t };
    (@type ($f:ident: $t:ty $([$($c:tt)+])?)) => { $t };
    (@value {}) => { () };
    (@value { $(#[$m:meta])* $f:ident $($rest:tt)* }) => { $f };
    (@value ($f:ident $($rest:tt)*)) => { $f };
}

/// Declares a wire struct once: the struct with its docs, and its
/// [`Wire`] form, which writes and reads the fields in declaration order.
/// Its decode errors name `"<owner> <field>"`.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident as $owner:literal {
            $($(#[$fmeta:meta])* pub $f:ident: $t:ty $([$($c:tt)+])?,)+
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $f: $t,)+
        }

        impl Wire for $name {
            fn put(&self, buf: &mut Vec<u8>) {
                let $name { $($f),+ } = self;
                $(fields!(@put1 buf $f $($($c)+)?);)+
            }

            fn get(r: &mut Reader<'_>, _: &'static str) -> Result<Self, WireError> {
                $(let $f: $t = fields!(@get1 r concat!($owner, " ", stringify!($f)) $(, $($c)+)?);)+
                Ok($name { $($f),+ })
            }
        }
    };
}

/// Declares an enum from `messages!` variants, given as `Name {}` (a unit
/// variant), `Name { field: Type, .. }` or `Name(field: Type)`; a field's
/// `[max M]` or `[len N]` is for the codec and is dropped here.
macro_rules! wire_enum {
    ($(#[$meta:meta])* $name:ident [$($done:tt)*]) => {
        $(#[$meta])*
        pub enum $name { $($done)* }
    };
    ($(#[$meta:meta])* $name:ident [$($done:tt)*] $(#[$vm:meta])* $v:ident {} $($rest:tt)*) => {
        wire_enum!($(#[$meta])* $name [$($done)* $(#[$vm])* $v,] $($rest)*);
    };
    ($(#[$meta:meta])* $name:ident [$($done:tt)*] $(#[$vm:meta])* $v:ident
        { $($(#[$fm:meta])* $f:ident: $t:ty $([$($c:tt)+])?),+ $(,)? } $($rest:tt)*) => {
        wire_enum!($(#[$meta])* $name [$($done)* $(#[$vm])* $v { $($(#[$fm])* $f: $t),+ },] $($rest)*);
    };
    ($(#[$meta:meta])* $name:ident [$($done:tt)*] $(#[$vm:meta])* $v:ident
        ($f:ident: $t:ty $([$($c:tt)+])?) $($rest:tt)*) => {
        wire_enum!($(#[$meta])* $name [$($done)* $(#[$vm])* $v($t),] $($rest)*);
    };
}

/// A reply payload: what one [`Response`] variant carries.
pub(crate) trait Reply: Sized {
    /// The payload, or the response back when it is of another kind.
    fn from_response(response: Response) -> Result<Self, Response>;
}

/// Declares every message once, one entry per opcode: `opcode "kind":
/// Request-variant => Response-variant`, each with its docs and its fields
/// in wire order. Derives both enums, `Request::{encode, decode}`,
/// `Response::{encode, decode, kind_name}` and the [`Reply`] impl of each
/// response payload type.
macro_rules! messages {
    ($(
        $op:literal $kind:literal:
        $(#[$qm:meta])* $request:ident $req:tt => $(#[$rm:meta])* $response:ident $resp:tt,
    )+) => {
        wire_enum! {
            /// A client request.
            #[derive(Clone, Debug, PartialEq, Eq)]
            Request [] $($(#[$qm])* $request $req)+
        }

        wire_enum! {
            /// A server reply.
            #[derive(Clone, Debug, PartialEq, Eq)]
            Response [] $($(#[$rm])* $response $resp)+
            /// A typed error.
            Error(error: ErrorReply)
        }

        impl Request {
            /// Appends this request's payload bytes to `buf` (no frame header).
            pub fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $(fields!(@pat Request $request $req) => {
                        buf.push($op);
                        fields!(@put buf $req);
                    })+
                }
            }

            /// Decodes a request payload (one whole frame, header stripped).
            ///
            /// # Errors
            ///
            /// Returns a [`WireError`] on any malformation; never panics.
            pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
                let r = &mut Reader::new(payload);
                let request = match u8::get(r, "opcode")? {
                    $($op => fields!(@get r $kind Request $request $req),)+
                    other => return Err(WireError::UnknownOpcode(other)),
                };
                r.finish()?;
                Ok(request)
            }
        }

        impl Response {
            /// The reply kind as a static name (for "wrong response kind"
            /// diagnostics).
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $(fields!(@any Response $response $resp) => $kind,)+
                    Response::Error(_) => "error",
                }
            }

            /// Appends this reply's payload bytes to `buf` (no frame header).
            pub fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $(fields!(@pat Response $response $resp) => {
                        buf.extend_from_slice(&[status::OK, $op]);
                        fields!(@put buf $resp);
                    })+
                    Response::Error(error) => {
                        buf.push(status::ERR);
                        error.put(buf);
                    }
                }
            }

            /// Decodes a reply payload (one whole frame, header stripped).
            ///
            /// # Errors
            ///
            /// Returns a [`WireError`] on any malformation; never panics.
            pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
                let r = &mut Reader::new(payload);
                let response = match u8::get(r, "status")? {
                    status::OK => match u8::get(r, "reply opcode")? {
                        $($op => fields!(@get r $kind Response $response $resp),)+
                        other => return Err(WireError::UnknownOpcode(other)),
                    },
                    status::ERR => Response::Error(Wire::get(r, "error")?),
                    other => return Err(WireError::UnknownStatus(other)),
                };
                r.finish()?;
                Ok(response)
            }
        }

        $(fields!(@reply $response $resp);)+
    };
}

/// A bounds-checked positional reader over one frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(WireError::Truncated(field))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.bytes.len() - self.pos))
        }
    }
}

messages! {
    0x01 "query":
    /// One distance query with a per-query forbidden set.
    Query {
        /// Source vertex id.
        s: u32,
        /// Target vertex id.
        t: u32,
        /// Per-query forbidden set.
        faults: WireFaults,
    } =>
    /// Answer to [`Request::Query`].
    Query(reply: QueryReply),

    0x02 "batch":
    /// Many queries answered in one frame (server fans them over the
    /// same decode path as `ForbiddenSetOracle::query_batch`).
    Batch(queries: Vec<(u32, u32, WireFaults)> [max MAX_BATCH]) =>
    /// Answer to [`Request::Batch`].
    Batch(replies: Vec<BatchItem> [max MAX_BATCH]),

    0x03 "route":
    /// Compute a route (static mode only).
    Route {
        /// Source vertex id.
        s: u32,
        /// Target vertex id.
        t: u32,
        /// Forbidden set known to the source.
        faults: WireFaults,
    } =>
    /// Answer to [`Request::Route`].
    Route(reply: RouteReply),

    0x04 "update":
    /// A durable dynamic update (dynamic mode only).
    Update(op: UpdateOp) =>
    /// Answer to [`Request::Update`]: active faults after the update.
    Update {
        /// Faults active after the update.
        active_faults: u32,
    },

    0x05 "stats":
    /// Server counters and identity.
    Stats {} =>
    /// Answer to [`Request::Stats`].
    Stats(reply: StatsReply),

    0x06 "shutdown":
    /// Graceful shutdown: drain in-flight requests, flush, exit.
    Shutdown {} =>
    /// Acknowledgement of [`Request::Shutdown`] (sent before the server
    /// begins draining).
    Shutdown {},

    0x07 "label-fetch":
    /// Self-contained encoded labels by global vertex id (shard and
    /// static modes): each derived from its points record and encoded by
    /// `fsdl_labels::codec`, so its bytes are exactly the builder's
    /// label's. It is the paper's object — what the size experiments
    /// measure and what a client outside the fleet reads. An empty id list
    /// is a valid handshake: the reply still carries the generation and
    /// the decode parameters.
    LabelFetch {
        /// Global vertex ids to fetch, at most [`MAX_LABEL_FETCH`].
        vertices: Vec<u32> [max MAX_LABEL_FETCH],
    } =>
    /// Answer to [`Request::LabelFetch`].
    LabelFetch(reply: LabelFetchReply),

    0x08 "edge-sets":
    /// The generation's level edge sets plus the shard's identity (shard
    /// and static modes). It is the router's handshake: the router keeps
    /// the edge sets for the generation and refuses a fleet that
    /// disagrees on any of [`EdgeSetsReply`].
    EdgeSets {} =>
    /// Answer to [`Request::EdgeSets`].
    EdgeSets(reply: EdgeSetsReply),

    0x09 "point-fetch":
    /// Points records by global vertex id (shard and static modes), a few
    /// hundred bytes each where a label is tens of kilobytes: what the
    /// router gathers per query, deriving the labels a query reads from
    /// them and the edge sets it holds.
    PointFetch {
        /// Global vertex ids to fetch, at most [`MAX_LABEL_FETCH`].
        vertices: Vec<u32> [max MAX_LABEL_FETCH],
    } =>
    /// Answer to [`Request::PointFetch`].
    PointFetch(reply: PointFetchReply),
}

/// A forbidden set as it rides the wire: raw vertex ids and edge pairs.
/// Conversion to a validated [`FaultSet`] happens server-side against the
/// actual graph (out-of-range ids become a typed [`ErrorCode::BadRequest`]
/// reply, never a panic).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireFaults {
    /// Forbidden vertex ids.
    pub vertices: Vec<u32>,
    /// Forbidden edges as unordered id pairs.
    pub edges: Vec<(u32, u32)>,
}

impl WireFaults {
    /// An empty forbidden set.
    pub fn empty() -> Self {
        WireFaults::default()
    }

    /// Whether no fault is named.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.edges.is_empty()
    }

    /// Converts to the in-memory representation without validation (the
    /// oracle's `try_*` entry points do the validating).
    pub fn to_fault_set(&self) -> FaultSet {
        let mut f = FaultSet::from_vertices(self.vertices.iter().copied().map(NodeId::new));
        for &(a, b) in &self.edges {
            if a != b {
                f.forbid_edge_unchecked(NodeId::new(a), NodeId::new(b));
            }
        }
        f
    }
}

/// Both counts (`u16`, so at most [`MAX_WIRE_FAULTS`] each) come first,
/// then the vertex ids, then the edge pairs.
impl Wire for WireFaults {
    const MIN: usize = 4;

    fn put(&self, buf: &mut Vec<u8>) {
        debug_assert!(self.vertices.len() <= usize::from(MAX_WIRE_FAULTS));
        debug_assert!(self.edges.len() <= usize::from(MAX_WIRE_FAULTS));
        (self.vertices.len() as u16, self.edges.len() as u16).put(buf);
        Wire::put_all(&self.vertices, buf);
        Wire::put_all(&self.edges, buf);
    }

    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError> {
        let (vertices, edges) = <(u16, u16)>::get(r, field)?;
        Ok(WireFaults {
            vertices: Wire::get_all(r, usize::from(vertices), field)?,
            edges: Wire::get_all(r, usize::from(edges), field)?,
        })
    }
}

/// A dynamic-oracle update operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOp {
    /// Delete a vertex.
    DeleteVertex(u32),
    /// Delete an edge.
    DeleteEdge(u32, u32),
    /// Restore a previously deleted vertex.
    RestoreVertex(u32),
    /// Restore a previously deleted edge.
    RestoreEdge(u32, u32),
}

/// `kind:u8 a:u32 b:u32`, with `b = 0` for a vertex.
impl Wire for UpdateOp {
    fn put(&self, buf: &mut Vec<u8>) {
        match *self {
            UpdateOp::DeleteVertex(v) => (0u8, v, 0u32),
            UpdateOp::DeleteEdge(a, b) => (1, a, b),
            UpdateOp::RestoreVertex(v) => (2, v, 0),
            UpdateOp::RestoreEdge(a, b) => (3, a, b),
        }
        .put(buf);
    }

    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError> {
        Ok(match <(u8, u32, u32)>::get(r, field)? {
            (0, v, _) => UpdateOp::DeleteVertex(v),
            (1, a, b) => UpdateOp::DeleteEdge(a, b),
            (2, v, _) => UpdateOp::RestoreVertex(v),
            (3, a, b) => UpdateOp::RestoreEdge(a, b),
            (other, _, _) => return Err(WireError::BadDiscriminant("update kind", other)),
        })
    }
}

/// Narrows a counter to its `u32` wire field, saturating to the
/// `u32::MAX` sentinel (see the module doc) instead of silently wrapping
/// like a bare `as u32` cast would.
pub(crate) fn sat_u32(v: usize) -> u32 {
    v.try_into().unwrap_or(u32::MAX)
}

wire_struct! {
    /// The reply to a [`Request::Query`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct QueryReply as "query" {
        /// `δ(s, t, F)` as raw bits (`u32::MAX` = infinite).
        pub distance: u32,
        /// Sketch vertices the decoder's search reached (0 in dynamic mode).
        pub sketch_vertices: u32,
        /// Admitted sketch edges the search relaxed (0 in dynamic mode).
        pub sketch_edges: u32,
        /// Witness path (empty when unreachable or in dynamic mode).
        pub path: Vec<u32>,
    }
}

impl QueryReply {
    /// The wire form of a decoder answer (sketch sizes saturate, see the
    /// module doc).
    pub(crate) fn from_answer(answer: &QueryAnswer) -> QueryReply {
        let BatchItem {
            distance,
            sketch_vertices,
            sketch_edges,
        } = BatchItem::from_answer(answer);
        QueryReply {
            distance,
            sketch_vertices,
            sketch_edges,
            path: answer.path.iter().map(|v| v.raw()).collect(),
        }
    }

    /// The distance as a [`Dist`].
    pub fn dist(&self) -> Dist {
        if self.distance == u32::MAX {
            Dist::INFINITE
        } else {
            Dist::new(self.distance)
        }
    }
}

wire_struct! {
    /// One element of a batch reply (no witness path: batches are the
    /// throughput path, and the distance plus sketch sizes are the
    /// bit-identity witness).
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct BatchItem as "batch" {
        /// `δ(s, t, F)` as raw bits (`u32::MAX` = infinite).
        pub distance: u32,
        /// Sketch vertices the decoder's search reached.
        pub sketch_vertices: u32,
        /// Admitted sketch edges the search relaxed.
        pub sketch_edges: u32,
    }
}

impl BatchItem {
    /// The wire form of a decoder answer, without its witness path.
    pub(crate) fn from_answer(answer: &QueryAnswer) -> BatchItem {
        BatchItem {
            distance: answer.distance.raw(),
            sketch_vertices: sat_u32(answer.sketch_vertices),
            sketch_edges: sat_u32(answer.sketch_edges),
        }
    }
}

/// The reply to a [`Request::Route`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteReply {
    /// The packet was delivered.
    Delivered {
        /// Edges traversed.
        hops: u32,
        /// Header size in bits.
        header_bits: u32,
        /// Every vertex visited, `s` to `t` inclusive.
        path: Vec<u32>,
    },
    /// Routing failed (relayed `RouteFailure` text).
    Failed(String),
}

/// `1 hops:u32 header_bits:u32 path` when delivered, `0 reason` when not.
impl Wire for RouteReply {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            RouteReply::Delivered {
                hops,
                header_bits,
                path,
            } => {
                (1u8, *hops, *header_bits).put(buf);
                path.put(buf);
            }
            RouteReply::Failed(reason) => {
                0u8.put(buf);
                reason.put(buf);
            }
        }
    }

    fn get(r: &mut Reader<'_>, field: &'static str) -> Result<Self, WireError> {
        match u8::get(r, field)? {
            1 => Ok(RouteReply::Delivered {
                hops: u32::get(r, field)?,
                header_bits: u32::get(r, field)?,
                path: Wire::get(r, field)?,
            }),
            0 => Ok(RouteReply::Failed(Wire::get(r, field)?)),
            other => Err(WireError::BadDiscriminant("route status", other)),
        }
    }
}

wire_struct! {
    /// The reply to a [`Request::Stats`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct StatsReply as "stats" {
        /// Vertices in the served graph (the query id space).
        pub vertices: u64,
        /// 0 = static oracle, 1 = dynamic oracle.
        pub dynamic: u8,
        /// Active faults (dynamic mode; 0 in static mode).
        pub active_faults: u64,
        /// Connections accepted so far.
        pub connections: u64,
        /// Single queries answered.
        pub queries: u64,
        /// Queries answered inside batch frames.
        pub batch_queries: u64,
        /// Routes computed.
        pub routes: u64,
        /// Updates applied.
        pub updates: u64,
        /// Protocol errors answered (malformed frames, bad requests).
        pub protocol_errors: u64,
        /// Connections closed for stalling mid-frame past the server's
        /// frame-completion deadline (slow-loris protection).
        pub deadline_closes: u64,
        /// `label-fetch` and `point-fetch` requests answered (shard and
        /// static modes), or on a router those sent upstream.
        pub label_fetches: u64,
    }
}

impl StatsReply {
    /// The `stats` reply of every front: its id space, a dynamic oracle's
    /// active `faults`, and its `totals`. A front counts fetches answered
    /// or sent upstream, never both, so their sum fills `label_fetches`.
    pub(crate) fn new(vertices: usize, faults: Option<usize>, totals: &Totals) -> StatsReply {
        StatsReply {
            vertices: vertices as u64,
            dynamic: u8::from(faults.is_some()),
            active_faults: faults.map_or(0, |k| k as u64),
            connections: totals.connections,
            queries: totals.queries,
            batch_queries: totals.batch_queries,
            routes: totals.routes,
            updates: totals.updates,
            protocol_errors: totals.protocol_errors,
            deadline_closes: totals.deadline_closes,
            label_fetches: totals.label_fetches + totals.upstream_fetches,
        }
    }
}

wire_struct! {
    /// One raw encoded label in a label-fetch reply.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct LabelBytes as "label" {
        /// The global vertex id this label belongs to.
        pub vertex: u32,
        /// Payload length in bits (the codec needs the exact bit count; the
        /// byte count on the wire is `bit_len.div_ceil(8)`).
        pub bit_len: u32,
        /// The encoded label, exactly as the store persists it.
        pub bytes: Vec<u8> [len bit_len.div_ceil(8) as usize],
    }
}

wire_struct! {
    /// The reply to a [`Request::LabelFetch`]: raw labels plus everything a
    /// router needs to decode them and detect shard disagreement.
    ///
    /// The reply may be **short**: servers pack labels under
    /// [`LABEL_FETCH_BYTE_BUDGET`] and answer with the longest prefix of
    /// the requested ids that fits (never fewer than one for a non-empty
    /// request). `labels` is always a prefix of the request, in request
    /// order; a reader seeing `labels.len()` below its request length must
    /// re-request the remaining suffix. A reply that is not a prefix —
    /// wrong ids, wrong order, or more labels than asked — is a protocol
    /// desynchronization (`is_fetch_prefix` tells the two apart, for
    /// [`PointFetchReply`] as well).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct LabelFetchReply as "label-fetch" {
        /// The store generation these bytes were served from.
        pub generation: u64,
        /// `f64::to_bits` of the scheme's epsilon (bit-exact on the wire).
        pub epsilon_bits: u64,
        /// The scheme's `c` parameter.
        pub c: u32,
        /// The *global* vertex count — the id width labels decode against,
        /// not this shard's label count.
        pub vertices: u64,
        /// The fetched labels, in request order.
        pub labels: Vec<LabelBytes> [max MAX_LABEL_FETCH],
    }
}

/// Whether the ids a fetch reply `served` may answer a fetch of
/// `requested`: a prefix of the request, in request order, and non-empty
/// unless the request is. Anything else means the reply no longer lines
/// up with its request.
pub(crate) fn is_fetch_prefix(requested: &[u32], served: impl IntoIterator<Item = u32>) -> bool {
    let mut count = 0;
    for vertex in served {
        if requested.get(count) != Some(&vertex) {
            return false;
        }
        count += 1;
    }
    count > 0 || requested.is_empty()
}

wire_struct! {
    /// The reply to a [`Request::EdgeSets`]: a generation's level edge sets
    /// and everything a router checks a fleet's agreement on.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct EdgeSetsReply as "edge-sets" {
        /// The store generation the edge sets belong to.
        pub generation: u64,
        /// `f64::to_bits` of the scheme's epsilon.
        pub epsilon_bits: u64,
        /// The scheme's `c` parameter.
        pub c: u32,
        /// The *global* vertex count.
        pub vertices: u64,
        /// Fingerprint of the (unsharded) graph the labels were built on.
        pub graph_fingerprint: u64,
        /// This shard's index in its partition (0 for a static server).
        pub shard: u32,
        /// Shards in the partition (1 for a static server).
        pub num_shards: u32,
        /// `fsdl_labels::edge_sets::checksum` of `edge_sets`.
        pub checksum: u64,
        /// `fsdl_labels::EdgeSets::encode`'s bytes.
        pub edge_sets: Vec<u8>,
    }
}

wire_struct! {
    /// One points record in a point-fetch reply.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct PointRecord as "point" {
        /// The global vertex id the record belongs to.
        pub vertex: u32,
        /// `fsdl_labels::edge_sets::points_record`'s bytes, as stored.
        pub bytes: Vec<u8>,
    }
}

wire_struct! {
    /// The reply to a [`Request::PointFetch`]: a request prefix of points
    /// records (short under the byte budget, like [`LabelFetchReply`]).
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct PointFetchReply as "point-fetch" {
        /// The store generation these records were served from.
        pub generation: u64,
        /// The fetched records, in request order.
        pub records: Vec<PointRecord> [max MAX_LABEL_FETCH],
    }
}

wire_struct! {
    /// An error reply: the typed code plus a human-readable message.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ErrorReply as "error" {
        /// The typed error code.
        pub code: ErrorCode,
        /// Human-readable detail.
        pub message: String,
    }
}

/// A typed error reply.
pub(crate) fn error_reply(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error(ErrorReply {
        code,
        message: message.into(),
    })
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Frame-layer failures (distinct from payload-level [`WireError`]s:
/// after a frame error the stream position is unreliable and the
/// connection should close; after a payload error the next frame is still
/// well delimited).
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The header announced a payload larger than `max`.
    Oversized {
        /// Claimed payload length.
        len: u32,
        /// The enforced ceiling.
        max: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "stream error: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// What [`read_frame`] observed.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame was read into the buffer.
    Frame,
    /// The peer closed the stream cleanly at a frame boundary.
    Eof,
}

/// Writes one frame (header + payload) and flushes.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "payload exceeds u32 length",
        )
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame into `buf` (resized to the payload length). Blocking:
/// assumes the stream has no read timeout. A clean EOF *before any header
/// byte* is [`FrameRead::Eof`]; EOF mid-frame is an
/// [`std::io::ErrorKind::UnexpectedEof`] I/O error.
///
/// # Errors
///
/// [`FrameError::Oversized`] when the header claims more than `max`
/// bytes, [`FrameError::Io`] on stream failures.
pub fn read_frame<R: Read>(
    r: &mut R,
    max: u32,
    buf: &mut Vec<u8>,
) -> Result<FrameRead, FrameError> {
    let mut header = [0u8; 4];
    // First header byte decides EOF-at-boundary vs truncated frame.
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(FrameRead::Eof);
                }
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed mid-header",
                )));
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(header);
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(FrameRead::Frame)
}

/// Encodes `req` and writes it as one frame.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn send_request<W: Write>(w: &mut W, req: &Request, buf: &mut Vec<u8>) -> std::io::Result<()> {
    buf.clear();
    req.encode(buf);
    write_frame(w, buf)
}

/// Encodes `resp` and writes it as one frame.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn send_response<W: Write>(
    w: &mut W,
    resp: &Response,
    buf: &mut Vec<u8>,
) -> std::io::Result<()> {
    buf.clear();
    resp.encode(buf);
    write_frame(w, buf)
}

/// One step of incremental frame extraction from a [`FrameAssembler`].
#[derive(Debug)]
pub enum FrameStep<'a> {
    /// A complete frame payload (header already stripped). The borrow ends
    /// before the next call to [`FrameAssembler::next_frame`]; callers that
    /// need to keep it must copy.
    Frame(&'a [u8]),
    /// Not enough buffered bytes for a header + payload yet.
    Incomplete,
    /// The buffered header claims a payload larger than the limit. The
    /// connection is unrecoverable (resynchronising on a length-prefixed
    /// stream is impossible); the caller should answer with a typed error
    /// and close.
    Oversized {
        /// The claimed payload length.
        len: u32,
        /// The enforced ceiling.
        max: u32,
    },
}

/// Reassembles length-prefixed frames from arbitrary read chunks.
///
/// A nonblocking socket hands the reactor whatever bytes the kernel has —
/// half a header, three frames and a tail, anything. The assembler buffers
/// raw bytes ([`FrameAssembler::read_from`]) and yields complete payloads
/// ([`FrameAssembler::next_frame`]) without copying per frame: consumed
/// frames advance a start cursor and the buffer is compacted only when it
/// is fully drained (the common case after each readiness burst).
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    start: usize,
}

impl FrameAssembler {
    /// Creates an empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one `read` worth of bytes from `r`. Returns the byte count
    /// (0 is EOF). `WouldBlock` is *propagated*, not swallowed: the caller
    /// owns the read-until-blocked loop.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `r`, including `WouldBlock`.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        // Read in reasonably large chunks so one readiness event drains
        // several frames per syscall.
        const CHUNK: usize = 16 * 1024;
        let len = self.buf.len();
        self.buf.resize(len + CHUNK, 0);
        match r.read(&mut self.buf[len..]) {
            Ok(n) => {
                self.buf.truncate(len + n);
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(len);
                Err(e)
            }
        }
    }

    /// Extracts the next complete frame, if the buffer holds one.
    pub fn next_frame(&mut self, max: u32) -> FrameStep<'_> {
        let pending = &self.buf[self.start..];
        if pending.len() < 4 {
            self.compact_if_drained();
            return FrameStep::Incomplete;
        }
        let len = u32::from_le_bytes([pending[0], pending[1], pending[2], pending[3]]);
        if len > max {
            return FrameStep::Oversized { len, max };
        }
        let total = 4 + len as usize;
        if pending.len() < total {
            return FrameStep::Incomplete;
        }
        let frame_start = self.start + 4;
        self.start += total;
        FrameStep::Frame(&self.buf[frame_start..frame_start + len as usize])
    }

    /// Bytes buffered but not yet consumed as frames. Nonzero means a
    /// partial (or not-yet-dispatched) frame is pending — the signal that
    /// arms the slow-loris deadline.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn compact_if_drained(&mut self) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 64 * 1024 {
            // Pathological interleaving (many tiny frames followed by a
            // long partial) could otherwise pin a large buffer forever.
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// A per-connection outgoing byte queue for nonblocking sockets.
///
/// [`write_frame`] assumes a blocking stream: `write_all` on a socket
/// whose kernel buffer fills mid-frame would fail with `WouldBlock` and
/// tear the frame. The reactor instead queues encoded frames here and
/// flushes on writability; partial writes advance a cursor so the next
/// flush resumes exactly where the kernel stopped.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    pos: usize,
    scratch: Vec<u8>,
}

impl WriteBuffer {
    /// Creates an empty write buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `resp` and queues it as one frame (header + payload).
    pub fn queue_response(&mut self, resp: &Response) {
        self.scratch.clear();
        resp.encode(&mut self.scratch);
        let payload = std::mem::take(&mut self.scratch);
        self.queue_frame(&payload);
        self.scratch = payload;
    }

    /// Queues one already-encoded payload as a frame.
    ///
    /// # Panics
    ///
    /// Panics if `payload` exceeds `u32::MAX` bytes; every encodable
    /// [`Response`] is far below [`MAX_FRAME`].
    pub fn queue_frame(&mut self, payload: &[u8]) {
        let len = u32::try_from(payload.len()).expect("frame payloads fit in u32");
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(payload);
    }

    /// Writes as much queued data as the socket accepts. Returns `true`
    /// when the queue drained, `false` when the socket blocked mid-queue
    /// (the caller should watch for writability).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than `WouldBlock`/`Interrupted`; a
    /// clean `Ok(0)` from `w` is reported as `WriteZero`.
    pub fn flush<W: Write>(&mut self, w: &mut W) -> std::io::Result<bool> {
        while self.pos < self.buf.len() {
            match w.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }

    /// Whether nothing is queued (the connection is write-quiescent).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsdl_testkit::Rng;

    fn roundtrip_request(req: &Request) {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        assert!(buf.len() <= MAX_FRAME as usize);
        let back = Request::decode(&buf).expect("valid encoding decodes");
        assert_eq!(&back, req);
    }

    fn roundtrip_response(resp: &Response) {
        let mut buf = Vec::new();
        resp.encode(&mut buf);
        let back = Response::decode(&buf).expect("valid encoding decodes");
        assert_eq!(&back, resp);
    }

    fn sample_faults(rng: &mut Rng) -> WireFaults {
        let nv = rng.gen_range(0..4usize);
        let ne = rng.gen_range(0..3usize);
        WireFaults {
            vertices: (0..nv).map(|_| rng.gen_range(0..1000u32)).collect(),
            edges: (0..ne)
                .map(|_| (rng.gen_range(0..1000u32), rng.gen_range(0..1000u32)))
                .collect(),
        }
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(&Request::Stats);
        roundtrip_request(&Request::Shutdown);
        roundtrip_request(&Request::Query {
            s: 0,
            t: u32::MAX,
            faults: WireFaults::empty(),
        });
        roundtrip_request(&Request::Update(UpdateOp::DeleteEdge(3, 900)));
        roundtrip_request(&Request::Update(UpdateOp::RestoreVertex(17)));
        roundtrip_request(&Request::LabelFetch { vertices: vec![] });
        roundtrip_request(&Request::LabelFetch {
            vertices: vec![0, 7, u32::MAX],
        });
        roundtrip_request(&Request::EdgeSets);
        roundtrip_request(&Request::PointFetch {
            vertices: vec![3, u32::MAX],
        });
        fsdl_testkit::check("request_roundtrip", 200, |rng| {
            let faults = sample_faults(rng);
            let req = match rng.gen_range(0..5u32) {
                0 => Request::Query {
                    s: rng.gen_range(0..500u32),
                    t: rng.gen_range(0..500u32),
                    faults,
                },
                1 => {
                    let k = rng.gen_range(0..6usize);
                    Request::Batch(
                        (0..k)
                            .map(|_| {
                                (
                                    rng.gen_range(0..500u32),
                                    rng.gen_range(0..500u32),
                                    sample_faults(rng),
                                )
                            })
                            .collect(),
                    )
                }
                2 => Request::Route {
                    s: rng.gen_range(0..500u32),
                    t: rng.gen_range(0..500u32),
                    faults,
                },
                3 => Request::Update(match rng.gen_range(0..4u32) {
                    0 => UpdateOp::DeleteVertex(rng.gen_range(0..500u32)),
                    1 => UpdateOp::DeleteEdge(rng.gen_range(0..500u32), rng.gen_range(0..500u32)),
                    2 => UpdateOp::RestoreVertex(rng.gen_range(0..500u32)),
                    _ => UpdateOp::RestoreEdge(rng.gen_range(0..500u32), rng.gen_range(0..500u32)),
                }),
                _ => {
                    let k = rng.gen_range(0..8usize);
                    Request::LabelFetch {
                        vertices: (0..k).map(|_| rng.gen_range(0..500u32)).collect(),
                    }
                }
            };
            roundtrip_request(&req);
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(&Response::Shutdown);
        roundtrip_response(&Response::Update { active_faults: 42 });
        roundtrip_response(&Response::Query(QueryReply {
            distance: u32::MAX,
            sketch_vertices: 0,
            sketch_edges: 0,
            path: vec![],
        }));
        roundtrip_response(&Response::Query(QueryReply {
            distance: 12,
            sketch_vertices: 40,
            sketch_edges: 120,
            path: vec![0, 5, 9, 12],
        }));
        roundtrip_response(&Response::Batch(vec![
            BatchItem {
                distance: 3,
                sketch_vertices: 10,
                sketch_edges: 20,
            };
            17
        ]));
        roundtrip_response(&Response::Route(RouteReply::Delivered {
            hops: 6,
            header_bits: 96,
            path: vec![1, 2, 3],
        }));
        roundtrip_response(&Response::Route(RouteReply::Failed("unreachable".into())));
        roundtrip_response(&Response::Stats(StatsReply {
            vertices: 144,
            dynamic: 1,
            active_faults: 3,
            connections: 9,
            queries: 1000,
            batch_queries: 4000,
            routes: 7,
            updates: 12,
            protocol_errors: 2,
            deadline_closes: 1,
            label_fetches: 5,
        }));
        roundtrip_response(&Response::LabelFetch(LabelFetchReply {
            generation: 12,
            epsilon_bits: 0.5f64.to_bits(),
            c: 24,
            vertices: 4096,
            labels: vec![
                LabelBytes {
                    vertex: 7,
                    bit_len: 19,
                    bytes: vec![0xAB, 0xCD, 0x05],
                },
                LabelBytes {
                    vertex: 4095,
                    bit_len: 0,
                    bytes: vec![],
                },
            ],
        }));
        roundtrip_response(&Response::EdgeSets(EdgeSetsReply {
            generation: 3,
            epsilon_bits: 1.0f64.to_bits(),
            c: 5,
            vertices: 400,
            graph_fingerprint: 0xDEAD_BEEF_0123_4567,
            shard: 1,
            num_shards: 2,
            checksum: u64::MAX,
            edge_sets: vec![1, 2, 3, 4, 5],
        }));
        roundtrip_response(&Response::PointFetch(PointFetchReply {
            generation: 3,
            records: vec![
                PointRecord {
                    vertex: 9,
                    bytes: vec![0x80, 0x01, 7],
                },
                PointRecord {
                    vertex: 10,
                    bytes: vec![],
                },
            ],
        }));
        roundtrip_response(&Response::Error(ErrorReply {
            code: ErrorCode::UnsupportedInMode,
            message: "route requires a static oracle".into(),
        }));
    }

    /// One instance of every message kind, each field a distinct value,
    /// with its encoding as captured from the codec: a change to either
    /// half of the codec, even a symmetric one that `*_roundtrips` cannot
    /// see, shows here as a changed byte.
    #[test]
    fn every_message_encodes_to_its_golden_bytes() {
        let faults = WireFaults {
            vertices: vec![7, 300],
            edges: vec![(1, 2)],
        };
        let requests = [
            (
                Request::Query {
                    s: 1,
                    t: 2,
                    faults: faults.clone(),
                },
                "01010000000200000002000100070000002c0100000100000002000000",
            ),
            (
                Request::Batch(vec![(3, 4, WireFaults::empty()), (5, 6, faults.clone())]),
                "0202000000030000000400000000000000050000000600000002000100070000002c0100000100000002000000",
            ),
            (
                Request::Route {
                    s: 9,
                    t: u32::MAX,
                    faults,
                },
                "0309000000ffffffff02000100070000002c0100000100000002000000",
            ),
            (Request::Update(UpdateOp::DeleteVertex(11)), "04000b00000000000000"),
            (Request::Update(UpdateOp::DeleteEdge(12, 13)), "04010c0000000d000000"),
            (Request::Update(UpdateOp::RestoreVertex(14)), "04020e00000000000000"),
            (Request::Update(UpdateOp::RestoreEdge(15, 16)), "04030f00000010000000"),
            (Request::Stats, "05"),
            (Request::Shutdown, "06"),
            (
                Request::LabelFetch {
                    vertices: vec![17, 18],
                },
                "07020000001100000012000000",
            ),
            (Request::EdgeSets, "08"),
            (
                Request::PointFetch {
                    vertices: vec![19, 0x0102_0304],
                },
                "09020000001300000004030201",
            ),
        ];
        let responses = [
            (
                Response::Query(QueryReply {
                    distance: 21,
                    sketch_vertices: 22,
                    sketch_edges: 23,
                    path: vec![24, 25],
                }),
                "0001150000001600000017000000020000001800000019000000",
            ),
            (
                Response::Batch(vec![BatchItem {
                    distance: u32::MAX,
                    sketch_vertices: 26,
                    sketch_edges: 27,
                }]),
                "000201000000ffffffff1a0000001b000000",
            ),
            (
                Response::Route(RouteReply::Delivered {
                    hops: 28,
                    header_bits: 29,
                    path: vec![30, 31],
                }),
                "0003011c0000001d000000020000001e0000001f000000",
            ),
            (
                Response::Route(RouteReply::Failed("no".into())),
                "00030002006e6f",
            ),
            (Response::Update { active_faults: 32 }, "000420000000"),
            (
                Response::Stats(StatsReply {
                    vertices: 41,
                    dynamic: 42,
                    active_faults: 43,
                    connections: 44,
                    queries: 45,
                    batch_queries: 46,
                    routes: 47,
                    updates: 48,
                    protocol_errors: 49,
                    deadline_closes: 50,
                    label_fetches: 0x0102_0304_0506_0708,
                }),
                "000529000000000000002a2b000000000000002c000000000000002d000000000000002e000000000000002f000000000000003000000000000000310000000000000032000000000000000807060504030201",
            ),
            (Response::Shutdown, "0006"),
            (
                Response::LabelFetch(LabelFetchReply {
                    generation: 51,
                    epsilon_bits: 0.5f64.to_bits(),
                    c: 52,
                    vertices: 53,
                    labels: vec![LabelBytes {
                        vertex: 54,
                        bit_len: 12,
                        bytes: vec![0xAB, 0x0C],
                    }],
                }),
                "00073300000000000000000000000000e03f34000000350000000000000001000000360000000c000000ab0c",
            ),
            (
                Response::EdgeSets(EdgeSetsReply {
                    generation: 55,
                    epsilon_bits: 1.0f64.to_bits(),
                    c: 56,
                    vertices: 57,
                    graph_fingerprint: 58,
                    shard: 59,
                    num_shards: 60,
                    checksum: 61,
                    edge_sets: vec![62, 63],
                }),
                "00083700000000000000000000000000f03f3800000039000000000000003a000000000000003b0000003c0000003d00000000000000020000003e3f",
            ),
            (
                Response::PointFetch(PointFetchReply {
                    generation: 64,
                    records: vec![PointRecord {
                        vertex: 65,
                        bytes: vec![66],
                    }],
                }),
                "0009400000000000000001000000410000000100000042",
            ),
            (
                Response::Error(ErrorReply {
                    code: ErrorCode::Unavailable,
                    message: "down".into(),
                }),
                "01090400646f776e",
            ),
        ];
        let hex = |buf: &[u8]| buf.iter().map(|b| format!("{b:02x}")).collect::<String>();
        for (request, golden) in &requests {
            let mut buf = Vec::new();
            request.encode(&mut buf);
            assert_eq!(hex(&buf), *golden, "{request:?}");
            assert_eq!(Request::decode(&buf).as_ref(), Ok(request));
        }
        for (response, golden) in &responses {
            let mut buf = Vec::new();
            response.encode(&mut buf);
            assert_eq!(hex(&buf), *golden, "{response:?}");
            assert_eq!(Response::decode(&buf).as_ref(), Ok(response));
        }
    }

    /// One bit flip, truncation or spliced tail of a valid encoding.
    fn mutate(rng: &mut Rng, buf: &mut Vec<u8>) {
        match rng.gen_range(0..3u32) {
            0 => {
                // Bit flip.
                let k = rng.gen_range(0..buf.len());
                buf[k] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                // Truncate.
                let k = rng.gen_range(0..buf.len());
                buf.truncate(k);
            }
            _ => {
                // Splice garbage on the end.
                let extra = rng.gen_range(1..9usize);
                for _ in 0..extra {
                    buf.push(rng.gen_range(0..=255u32) as u8);
                }
            }
        }
    }

    /// The golden encodings of `every_message_encodes_to_its_golden_bytes`:
    /// one of every request and every response kind.
    const GOLDEN: [&str; 23] = [
        "01010000000200000002000100070000002c0100000100000002000000",
        "0202000000030000000400000000000000050000000600000002000100070000002c0100000100000002000000",
        "0309000000ffffffff02000100070000002c0100000100000002000000",
        "04000b00000000000000",
        "04010c0000000d000000",
        "04020e00000000000000",
        "04030f00000010000000",
        "05",
        "06",
        "07020000001100000012000000",
        "08",
        "09020000001300000004030201",
        "0001150000001600000017000000020000001800000019000000",
        "000201000000ffffffff1a0000001b000000",
        "0003011c0000001d000000020000001e0000001f000000",
        "00030002006e6f",
        "000420000000",
        "000529000000000000002a2b000000000000002c000000000000002d000000000000002e000000000000002f000000000000003000000000000000310000000000000032000000000000000807060504030201",
        "0006",
        "00073300000000000000000000000000e03f34000000350000000000000001000000360000000c000000ab0c",
        "00083700000000000000000000000000f03f3800000039000000000000003a000000000000003b0000003c0000003d00000000000000020000003e3f",
        "0009400000000000000001000000410000000100000042",
        "01090400646f776e",
    ];

    /// Any mutation of a valid encoding must decode to a typed error or a
    /// (different or equal) valid message — never panic. Mirrors the
    /// label corruption sweeps (`crates/labels/tests/chaos.rs`) at the
    /// wire layer, over a random query and over every golden message,
    /// each decoded as both a request and a response.
    #[test]
    fn mutated_payloads_never_panic() {
        fsdl_testkit::check("mutated_request_payloads", 400, |rng| {
            let mut buf = Vec::new();
            Request::Query {
                s: rng.gen_range(0..100u32),
                t: rng.gen_range(0..100u32),
                faults: sample_faults(rng),
            }
            .encode(&mut buf);
            mutate(rng, &mut buf);
            let _ = Request::decode(&buf);
            let _ = Response::decode(&buf);
        });
        let golden: Vec<Vec<u8>> = GOLDEN
            .iter()
            .map(|hex| {
                (0..hex.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                    .collect()
            })
            .collect();
        for (i, buf) in golden.iter().enumerate() {
            let requests = i < 12;
            assert_eq!(Request::decode(buf).is_ok(), requests, "golden {i}");
            assert_eq!(Response::decode(buf).is_ok(), !requests, "golden {i}");
        }
        fsdl_testkit::check("mutated_golden_payloads", 400, |rng| {
            for original in &golden {
                let mut buf = original.clone();
                mutate(rng, &mut buf);
                let _ = Request::decode(&buf);
                let _ = Response::decode(&buf);
            }
        });
    }

    #[test]
    fn decode_errors_name_their_field() {
        let hex = |s: &str| -> Vec<u8> {
            (0..s.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
                .collect()
        };
        let request = |s| Request::decode(&hex(s)).unwrap_err();
        let response = |s| Response::decode(&hex(s)).unwrap_err();
        use WireError::Truncated;
        assert_eq!(request("0101000000"), Truncated("query t"));
        assert_eq!(request("04000b000000"), Truncated("update op"));
        assert_eq!(
            request("0702000000110000"),
            Truncated("label-fetch vertices")
        );
        assert_eq!(response("0001"), Truncated("query distance"));
        assert_eq!(response("000733"), Truncated("label-fetch generation"));
        let label = "00073300000000000000000000000000e03f34000000350000000000000001000000360000000c000000ab";
        assert_eq!(response(label), Truncated("label bytes"));
        assert_eq!(
            response("000940000000000000000100000041"),
            Truncated("point vertex")
        );
        assert_eq!(response("01"), Truncated("error code"));
    }

    #[test]
    fn an_over_long_message_is_cut_at_a_char_boundary() {
        let message = "é".repeat(40_000);
        let mut buf = Vec::new();
        error_reply(ErrorCode::Internal, message.clone()).encode(&mut buf);
        let Ok(Response::Error(reply)) = Response::decode(&buf) else {
            panic!("an over-long message must still decode");
        };
        // 65 535 bytes would split an `é`: the cut keeps 32 767 of them.
        assert_eq!(reply.message, message[..65_534]);
    }

    #[test]
    fn a_fetch_reply_must_be_a_non_empty_prefix_of_its_request() {
        let requested = [4, 8, 15];
        let served = |ids: &[u32]| is_fetch_prefix(&requested, ids.iter().copied());
        assert!(served(&[4, 8, 15]), "exact");
        assert!(served(&[4]), "short prefix");
        assert!(!served(&[]), "empty reply to a non-empty request");
        assert!(!served(&[4, 8, 15, 16]), "longer than the request");
        assert!(!served(&[4, 9]), "wrong id");
        assert!(!served(&[8, 4]), "reordered");
        assert!(is_fetch_prefix(&[], std::iter::empty()), "empty to empty");
    }

    #[test]
    fn batch_count_limit_is_enforced() {
        let mut buf = vec![2u8]; // BATCH opcode
        buf.extend_from_slice(&(MAX_BATCH + 1).to_le_bytes());
        match Request::decode(&buf) {
            Err(WireError::TooMany { what, .. }) => assert_eq!(what, "batch queries"),
            other => panic!("expected TooMany, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        Request::Stats.encode(&mut buf);
        buf.push(0);
        assert_eq!(Request::decode(&buf), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn framing_roundtrip_and_limits() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut buf = Vec::new();
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME, &mut buf).unwrap(),
            FrameRead::Frame
        ));
        assert_eq!(buf, b"hello");
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME, &mut buf).unwrap(),
            FrameRead::Frame
        ));
        assert!(buf.is_empty());
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME, &mut buf).unwrap(),
            FrameRead::Eof
        ));

        // Oversized header is a typed frame error.
        let mut oversized = std::io::Cursor::new((MAX_FRAME + 1).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut oversized, MAX_FRAME, &mut buf),
            Err(FrameError::Oversized { .. })
        ));

        // Truncated payload is UnexpectedEof.
        let mut torn = Vec::new();
        write_frame(&mut torn, b"full payload").unwrap();
        torn.truncate(torn.len() - 4);
        let mut cursor = std::io::Cursor::new(torn);
        match read_frame(&mut cursor, MAX_FRAME, &mut buf) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected truncated-payload error, got {other:?}"),
        }
    }

    /// Feeds `wire` to an assembler in chunks of `step` bytes and returns
    /// every extracted frame payload.
    fn reassemble(wire: &[u8], step: usize) -> Vec<Vec<u8>> {
        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for chunk in wire.chunks(step) {
            let mut cursor = std::io::Cursor::new(chunk);
            let n = asm.read_from(&mut cursor).unwrap();
            assert_eq!(n, chunk.len());
            loop {
                match asm.next_frame(MAX_FRAME) {
                    FrameStep::Frame(payload) => frames.push(payload.to_vec()),
                    FrameStep::Incomplete => break,
                    FrameStep::Oversized { .. } => panic!("unexpected oversize"),
                }
            }
        }
        assert_eq!(asm.buffered(), 0, "all bytes consumed as frames");
        frames
    }

    #[test]
    fn assembler_reassembles_frames_split_at_every_offset() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xAB; 300]).unwrap();
        write_frame(&mut wire, b"omega").unwrap();
        let want: Vec<Vec<u8>> = vec![
            b"alpha".to_vec(),
            Vec::new(),
            vec![0xAB; 300],
            b"omega".to_vec(),
        ];
        // Every chunk size, including 1-byte drip-feed across the header
        // and payload boundaries, must yield the identical frame stream.
        for step in 1..=wire.len() {
            assert_eq!(reassemble(&wire, step), want, "chunk size {step}");
        }
    }

    #[test]
    fn assembler_reports_oversized_headers_without_consuming() {
        let mut asm = FrameAssembler::new();
        let wire = (MAX_FRAME + 1).to_le_bytes();
        let mut cursor = std::io::Cursor::new(&wire[..]);
        asm.read_from(&mut cursor).unwrap();
        match asm.next_frame(MAX_FRAME) {
            FrameStep::Oversized { len, max } => {
                assert_eq!(len, MAX_FRAME + 1);
                assert_eq!(max, MAX_FRAME);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // The poisoned header stays buffered: the connection must close,
        // not resynchronise.
        assert_eq!(asm.buffered(), 4);
    }

    #[test]
    fn assembler_propagates_would_block() {
        struct Blocked;
        impl std::io::Read for Blocked {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::WouldBlock.into())
            }
        }
        let mut asm = FrameAssembler::new();
        let err = asm.read_from(&mut Blocked).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(asm.buffered(), 0);
    }

    /// A writer that accepts at most `cap` bytes per call and blocks
    /// entirely every other call — the worst kernel send buffer.
    struct Throttled {
        accepted: Vec<u8>,
        cap: usize,
        turn: bool,
    }

    impl std::io::Write for Throttled {
        fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
            self.turn = !self.turn;
            if !self.turn {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = data.len().min(self.cap);
            self.accepted.extend_from_slice(&data[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buffer_survives_would_block_mid_frame() {
        let mut wb = WriteBuffer::new();
        wb.queue_response(&Response::Update { active_faults: 7 });
        wb.queue_frame(b"raw payload");
        assert!(!wb.is_empty());

        let mut sink = Throttled {
            accepted: Vec::new(),
            cap: 3,
            turn: false,
        };
        let mut flushes = 0usize;
        while !wb.flush(&mut sink).unwrap() {
            flushes += 1;
            assert!(flushes < 1000, "flush loop did not terminate");
        }
        assert!(wb.is_empty());

        // The byte stream is identical to the blocking writer's.
        let mut want = Vec::new();
        send_response(
            &mut want,
            &Response::Update { active_faults: 7 },
            &mut Vec::new(),
        )
        .unwrap();
        write_frame(&mut want, b"raw payload").unwrap();
        assert_eq!(sink.accepted, want);

        // Queueing after a drain reuses the compacted buffer.
        wb.queue_frame(b"again");
        let mut plain = Vec::new();
        assert!(wb.flush(&mut plain).unwrap());
        let mut want = Vec::new();
        write_frame(&mut want, b"again").unwrap();
        assert_eq!(plain, want);
    }
}
