// Minimal blocking HTTP/1.1 keep-alive client for the loopback workload.
#ifndef PERFBENCH_HTTP_CLIENT_H_
#define PERFBENCH_HTTP_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct HttpReply {
  int status = 0;
  /// Header names lowercased.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First value of header `name` (lowercase); empty when absent.
  std::string Header(const std::string& name) const;
};

/// One persistent connection to 127.0.0.1:<port>. Not thread-safe: each
/// closed-loop client owns one.
class HttpClient {
 public:
  HttpClient() = default;
  ~HttpClient() { Close(); }
  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  bool Connect(uint16_t port, std::string* error);
  /// Sends one request and reads the full reply (Content-Length framing).
  bool Post(const std::string& path, const std::string& body,
            const std::vector<std::pair<std::string, std::string>>& headers,
            HttpReply* reply, std::string* error);
  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes read past the previous reply
};

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_CLIENT_H_
