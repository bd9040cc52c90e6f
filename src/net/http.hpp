// The HTTP side of a port shared with the wire protocol.
//
// attestd and the shard coordinator each serve a few read-only
// operability paths (/metrics, /healthz, /statusz, ...) on their
// attestation port. Both run the same rules, kept here once:
//
//  - sniffing: a connection's first byte says what it carries. Wire
//    frames open with the magic's 'S'; an HTTP request line opens with an
//    upper-case method token;
//  - reading: the request is buffered until its header block ends, and a
//    request over kMaxHttpRequestBytes is dropped without a reply;
//  - answering: one response per connection, then close. GET and HEAD
//    are served, HEAD without the body; any other method gets 405, a path
//    outside the route table 404 naming the served paths.
//
// Each front door owns its sockets and event loop; it calls these with its
// own route table.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>

namespace sacha::net {

inline constexpr std::size_t kMaxHttpRequestBytes = 16 * 1024;

/// What a fresh connection on a shared port carries, from its first byte.
enum class PortTraffic {
  kPending,  // nothing readable yet
  kWire,     // a wire frame, other bytes, or the peer's close: the wire
             // read handles all three
  kHttp,     // an HTTP request line
};

/// Peeks (MSG_PEEK) the first byte of nonblocking socket `fd`.
PortTraffic sniff_traffic(int fd);

enum class HttpRead {
  kPending,   // the header block has not ended yet
  kComplete,  // `request` holds a whole header block
  kDrop,      // EOF, socket error or oversize request: close, no reply
};

/// Appends whatever nonblocking socket `fd` has to `request`.
HttpRead read_http_request(int fd, std::string& request);

/// One served path. `body` builds the response body and may replace the
/// status line (default "200 OK").
struct HttpRoute {
  std::string_view path;
  std::string_view content_type;
  std::function<std::string(std::string& status)> body;
};

/// The complete response (status line, headers, and the body unless the
/// method is HEAD) to a complete request, routed through `routes`.
std::string http_response(std::string_view request,
                          std::span<const HttpRoute> routes);

}  // namespace sacha::net
