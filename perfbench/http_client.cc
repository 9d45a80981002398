#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace perfbench {

std::string HttpReply::Header(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return "";
}

bool HttpClient::Connect(uint16_t port, std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    Close();
    return false;
  }
  return true;
}

void HttpClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpClient::Post(
    const std::string& path, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    HttpReply* reply, std::string* error) {
  std::string wire = "POST " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  wire += "Content-Type: application/json\r\n";
  for (const auto& [name, value] : headers) {
    wire += name + ": " + value + "\r\n";
  }
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  wire += body;
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
    sent += static_cast<size_t>(n);
  }

  // Read until the head is complete, then exactly Content-Length bytes.
  size_t head_end = std::string::npos;
  size_t body_len = 0;
  char buf[16384];
  for (;;) {
    if (head_end == std::string::npos) {
      head_end = buffer_.find("\r\n\r\n");
      if (head_end != std::string::npos) {
        const std::string head = buffer_.substr(0, head_end);
        if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) {
          *error = "malformed status line";
          return false;
        }
        reply->status = std::atoi(head.c_str() + 9);
        reply->headers.clear();
        bool has_length = false;
        size_t line = head.find("\r\n");
        while (line != std::string::npos) {
          const size_t next = head.find("\r\n", line + 2);
          const std::string field = head.substr(
              line + 2, next == std::string::npos ? std::string::npos
                                                  : next - line - 2);
          const size_t colon = field.find(':');
          if (colon != std::string::npos) {
            std::string key = field.substr(0, colon);
            for (char& c : key) {
              c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
            }
            size_t v = colon + 1;
            while (v < field.size() && field[v] == ' ') ++v;
            if (key == "content-length") {
              body_len = std::strtoull(field.c_str() + v, nullptr, 10);
              has_length = true;
            }
            reply->headers.emplace_back(std::move(key), field.substr(v));
          }
          line = next;
        }
        if (!has_length) {
          *error = "reply without Content-Length";
          return false;
        }
      }
    }
    if (head_end != std::string::npos &&
        buffer_.size() >= head_end + 4 + body_len) {
      reply->body = buffer_.substr(head_end + 4, body_len);
      buffer_.erase(0, head_end + 4 + body_len);
      return true;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      *error = n == 0 ? "connection closed by server"
                      : std::string("recv: ") + std::strerror(errno);
      return false;
    }
    buffer_.append(buf, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
