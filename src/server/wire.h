// JSON messages over length-prefixed frames: the worker wire protocol.
//
// A message is one JSON document (a request or a response of the SimServer
// command API). On the wire it becomes a common/framing.h frame whose two
// sections split the document. Two top-level fields are treated by name:
//
//   "blob"   a string: the base64 session payload of exportSession/
//            importSession, by far the largest thing the protocol
//            carries. It is detached and shipped in the frame's binary
//            section; everything else is serialized as JSON text. The
//            receiver reattaches it. Detaching keeps multi-MiB blobs out
//            of the JSON writer and parser (no escape scanning, no string
//            re-copying) and gives a future binary codec a ready channel.
//   "state"  the rendered machine of step, stepBack, state, fastForward
//            and restoreCheckpoint replies, >=99% of each. The reader
//            validates it with the JSON parser's own grammar and depth
//            limit and keeps it as a raw node (json.h) instead of a DOM,
//            so the router and the gateway, which never read inside it,
//            pass the worker's bytes on: WriteMessage copies the text.
//            The worker's reply holds it raw too (RenderJson writes
//            text), so no hop dumps a DOM of it. A malformed state is a
//            parse error of the whole message.
//
// Every other field parses as usual, and both ends observe equal
// documents: the split and the raw node are invisible above this layer
// except to a reader that looks inside a state, which must call
// json::Parse(state.Dump()).
//
// Read/write are synchronous with millisecond deadlines; every failure
// (timeout, truncated frame, over-cap length, version mismatch) is a
// Status the transport layer reports — the connection is then unusable
// and must be re-established.
#pragma once

#include <cstddef>
#include <string>

#include "common/framing.h"
#include "common/socket.h"
#include "common/status.h"
#include "json/json.h"

namespace rvss::server {

struct WireOptions {
  /// Deadline for one whole message: header and both payload sections
  /// share a single budget, so a peer dribbling bytes section-by-section
  /// cannot stretch one call past it.
  int ioTimeoutMs = 30'000;
  std::size_t maxFrameBytes = net::kDefaultMaxFrameBytes;
};

/// Writes one frame from pre-split sections. The zero-copy primitive:
/// both sections are borrowed views, nothing is re-serialized — callers
/// that resend (the transport's write retry) pay the serialization once.
Status WriteFrame(net::Socket& socket, std::string_view jsonText,
                  std::string_view blob, const WireOptions& options);

/// Serializes `message` into one frame and writes it. The message is
/// taken by value so a non-empty top-level "blob" string can be moved
/// into the binary section instead of copied.
Status WriteMessage(net::Socket& socket, json::Json message,
                    const WireOptions& options);

/// Reads one frame and reassembles the message (reattaching the blob;
/// a top-level "state" comes back as a raw node, see above).
/// Buffers grow with the bytes received, not with the lengths the header
/// declares, so a peer that stalls mid-frame costs only what it sent.
Result<json::Json> ReadMessage(net::Socket& socket,
                               const WireOptions& options);

// ---- the hello handshake ----------------------------------------------------
//
// Before a router trusts a worker connection it sends {"command":"hello"}
// (carrying its own fingerprint, for the worker's logs) and checks the
// reply against its local build. The fingerprint pins everything the two
// processes must agree on to move sessions safely:
//
//   frameVersion           net::kFrameVersion — the wire framing
//   apiVersion             server::kApiVersion — the JSON API surface
//   snapshotFormatVersion  snapshot::kFormatVersion — session blobs
//   configHash             snapshot::ConfigHash(config::DefaultConfig()),
//                          hex — a stand-in for "same simulator build":
//                          any change to the config schema or defaults
//                          changes it, so a stale worker binary is caught
//                          at connect time instead of surfacing as a
//                          per-message decode error mid-migration.
//
// Pinning the snapshot format also settles every blob capability: a peer
// that passed the handshake decodes whatever this build encodes,
// base-referenced delta blobs included.
//
// The worker's SimServer answers it like any other command (the router
// answers it the same way for itself); a pre-handshake worker answers
// with an unknown-command error, which the router also treats as a
// refusal.

/// This build's fingerprint as a hello response:
/// {status:"ok", hello:true, frameVersion, apiVersion,
///  snapshotFormatVersion, configHash}.
json::Json MakeHelloResponse();

/// The hello request a connecting router sends (same fields, command
/// "hello").
json::Json MakeHelloRequest();

/// Verifies a peer's hello response against the local fingerprint.
/// `peer` names the endpoint in the error message.
Status CheckHelloResponse(const json::Json& response,
                          const std::string& peer);

}  // namespace rvss::server
