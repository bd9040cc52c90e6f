#include "net/http.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>

#include "net/wire.hpp"

namespace sacha::net {

PortTraffic sniff_traffic(int fd) {
  unsigned char first = 0;
  ssize_t n;
  do {
    n = ::recv(fd, &first, 1, MSG_PEEK);
  } while (n < 0 && errno == EINTR);
  if (n < 0) return PortTraffic::kPending;  // EAGAIN: wait for readiness
  if (n == 0) return PortTraffic::kWire;
  const unsigned char wire_first = kWireMagic >> 8;  // 'S'
  const bool method = first >= 'A' && first <= 'Z' && first != wire_first;
  return method ? PortTraffic::kHttp : PortTraffic::kWire;
}

HttpRead read_http_request(int fd, std::string& request) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      request.append(buf, static_cast<std::size_t>(n));
      if (request.size() > kMaxHttpRequestBytes) return HttpRead::kDrop;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return HttpRead::kDrop;  // EOF or a socket error
  }
  return request.find("\r\n\r\n") == std::string::npos ? HttpRead::kPending
                                                       : HttpRead::kComplete;
}

std::string http_response(std::string_view request,
                          std::span<const HttpRoute> routes) {
  // Request line: METHOD SP TARGET SP VERSION; the query string is ignored.
  const std::string_view line = request.substr(0, request.find("\r\n"));
  const std::size_t method_end = std::min(line.find(' '), line.size());
  const std::string_view method = line.substr(0, method_end);
  std::string_view target = line.substr(std::min(method_end + 1, line.size()));
  target = target.substr(0, target.find(' '));
  const std::string_view path = target.substr(0, target.find('?'));

  std::string status = "200 OK";
  std::string_view content_type = "text/plain; charset=utf-8";
  std::string body;
  const auto route =
      std::find_if(routes.begin(), routes.end(),
                   [path](const HttpRoute& r) { return r.path == path; });
  if (method != "GET" && method != "HEAD") {
    status = "405 Method Not Allowed";
    body = "only GET and HEAD are served\n";
  } else if (route != routes.end()) {
    content_type = route->content_type;
    body = route->body(status);
  } else {
    status = "404 Not Found";
    body = "not found: served paths are";
    for (const HttpRoute& r : routes) {
      body += ' ';
      body += r.path;
    }
    body += '\n';
  }
  std::string response = "HTTP/1.1 " + status + "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: " + std::to_string(body.size()) +
              "\r\nConnection: close\r\n\r\n";
  if (method != "HEAD") response += body;
  return response;
}

}  // namespace sacha::net
