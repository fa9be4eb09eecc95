// Blocking client for the engine's line protocol (DESIGN.md §15): one
// statement per line out; result lines back, closed by `OK` or `ERR ...`.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Reply {
  bool ok = false;            ///< terminator was `OK`
  std::string status;         ///< `OK`, `ERR ...`, or "" when the link broke
  std::vector<std::string> lines;  ///< result lines before the terminator
};

class Client {
 public:
  Client() = default;
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(uint16_t port);
  void Close();

  /// Sends `statement` and reads its reply; a broken link gives an empty
  /// status.
  Reply Request(const std::string& statement);

 private:
  bool SendLine(const std::string& line);

  int fd_ = -1;
  std::string buf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
