// One HTTP hygiene table for every front door that shares its port with
// the wire protocol (attestd, the shard coordinator): a served path
// answers 200 with an exact Content-Length, an unknown path 404 naming the
// served paths, any method but GET/HEAD 405, HEAD the headers alone, and a
// request over the 16 KiB cap is closed without a reply.
#pragma once

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

namespace sacha::testing_http {

/// One blocking HTTP exchange against 127.0.0.1:`port`: sends `request`
/// verbatim and reads to EOF (each front door closes after its reply). An
/// empty result means the server answered nothing.
inline std::string http_exchange(std::uint16_t port,
                                 const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  // MSG_NOSIGNAL: a server that drops an oversize request may reset the
  // connection while it is still being sent.
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

inline std::string http_get(std::uint16_t port, const std::string& path) {
  return http_exchange(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n");
}

struct HygieneRow {
  const char* what;
  std::string request;
  const char* status_line;  // nullptr: the connection closes unanswered
  bool head = false;        // headers only: the body is omitted
  std::string must_contain{};
};

/// Runs the table against the front door on `port`, whose 404 body lists
/// `served_paths` (space-separated, in route order).
inline void expect_http_hygiene(std::uint16_t port,
                                const std::string& served_paths) {
  const std::vector<HygieneRow> table = {
      {"served path", "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
       "HTTP/1.1 200 OK", false, "Content-Type: application/json"},
      {"unknown path", "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n",
       "HTTP/1.1 404 Not Found", false,
       "not found: served paths are " + served_paths + "\n"},
      {"POST", "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
       "HTTP/1.1 405 Method Not Allowed", false},
      {"unknown method", "GRAB /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
       "HTTP/1.1 405 Method Not Allowed", false},
      {"HEAD", "HEAD /metrics HTTP/1.1\r\nHost: x\r\n\r\n", "HTTP/1.1 200 OK",
       true, "Content-Type: text/plain; version=0.0.4"},
      {"oversize request",
       "GET /metrics HTTP/1.1\r\nX-Pad: " + std::string(17 * 1024, 'a') +
           "\r\n\r\n",
       nullptr},
  };
  for (const HygieneRow& row : table) {
    SCOPED_TRACE(row.what);
    const std::string reply = http_exchange(port, row.request);
    if (row.status_line == nullptr) {
      EXPECT_TRUE(reply.empty()) << reply.substr(0, 80);
      continue;
    }
    EXPECT_EQ(reply.rfind(row.status_line, 0), 0u) << reply.substr(0, 80);
    if (!row.must_contain.empty()) {
      EXPECT_NE(reply.find(row.must_contain), std::string::npos) << reply;
    }
    const std::size_t header_end = reply.find("\r\n\r\n");
    ASSERT_NE(header_end, std::string::npos);
    const std::string length_key = "Content-Length: ";
    const std::size_t length_at = reply.find(length_key);
    ASSERT_LT(length_at, header_end);
    const std::size_t length =
        std::stoul(reply.substr(length_at + length_key.size()));
    const std::size_t body = reply.size() - (header_end + 4);
    EXPECT_GT(length, 0u);
    // HEAD states the length a GET would carry, and sends nothing of it.
    EXPECT_EQ(body, row.head ? 0u : length);
  }
}

}  // namespace sacha::testing_http
