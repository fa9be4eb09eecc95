#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace perfbench {

bool Client::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Close();
    return false;
  }
  return true;
}

void Client::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool Client::SendLine(const std::string& line) {
  const std::string out = line + "\n";
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

Reply Client::Request(const std::string& statement) {
  Reply r;
  if (fd_ < 0 || !SendLine(statement)) return r;
  char chunk[16384];
  size_t scan = 0;
  for (;;) {
    size_t nl;
    while ((nl = buf_.find('\n', scan)) != std::string::npos) {
      std::string line = buf_.substr(scan, nl - scan);
      scan = nl + 1;
      if (line == "OK" || line.rfind("ERR", 0) == 0) {
        buf_.erase(0, scan);
        r.ok = line == "OK";
        r.status = std::move(line);
        return r;
      }
      r.lines.push_back(std::move(line));
    }
    ssize_t n;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return r;
    buf_.append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
