// dmspawn: runs one program in a fresh child process and reports its cost.
//
//   dmspawn [--stdin FILE] [--chunk BYTES] -- PROGRAM ARGS...
//
// Prints one JSON object on stdout: the child's wall time, its user+sys CPU
// time and its peak RSS (ru_maxrss from wait4), and its exit code (-N when
// signal N ended it). The child's stdout goes to /dev/null and its stderr is
// this process's stderr. With --stdin, FILE is written to the child's stdin
// in reads of --chunk bytes (default 1 MiB), inside the timed interval;
// otherwise the child's stdin is /dev/null.
//
// Why a separate process: on Linux a child's ru_maxrss starts at the
// resident set of the process it was forked (or vforked) from, because
// fork copies the parent's page mappings and exec folds the old image's
// high-water mark into the new one's. Spawned from a benchmark driver that
// holds inputs in memory, a tool that needs little memory would read as big
// as the driver. This program uses nothing but libc and allocates its one
// chunk buffer only after the fork, so the floor it leaves under a child's
// reading is about 1 MB: `dmspawn -- /bin/true` reads 1.1 MB.

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: dmspawn [--stdin FILE] [--chunk BYTES] -- PROGRAM "
               "ARGS...\n");
  return 2;
}

double Now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Writes all of buf[0, n) to fd; false once the reader has gone away.
bool WriteAll(int fd, const char* buf, size_t n) {
  while (n > 0) {
    const ssize_t w = write(fd, buf, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    buf += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Copies the file behind `in` to `out` in reads of `chunk` bytes. Returns
/// false only when reading the file fails; a child that stops reading its
/// stdin early is the child's business and shows in its exit code.
bool Feed(int in, int out, size_t chunk) {
  char* buf = static_cast<char*>(std::malloc(chunk));
  if (buf == nullptr) return false;
  bool ok = true;
  for (;;) {
    const ssize_t r = read(in, buf, chunk);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) ok = false;
    if (r <= 0) break;
    if (!WriteAll(out, buf, static_cast<size_t>(r))) break;
  }
  std::free(buf);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const char* stdin_path = nullptr;
  size_t chunk = 1 << 20;
  int i = 1;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "--") == 0) {
      ++i;
      break;
    }
    if (std::strcmp(argv[i], "--stdin") == 0 && i + 1 < argc) {
      stdin_path = argv[++i];
    } else if (std::strcmp(argv[i], "--chunk") == 0 && i + 1 < argc) {
      chunk = std::strtoul(argv[++i], nullptr, 10);
      if (chunk == 0) return Usage();
    } else {
      return Usage();
    }
  }
  if (i >= argc) return Usage();
  char** child_argv = argv + i;

  int in = -1;
  if (stdin_path != nullptr) {
    in = open(stdin_path, O_RDONLY | O_CLOEXEC);
    if (in < 0) {
      std::perror(stdin_path);
      return 1;
    }
  }
  int pipe_fds[2] = {-1, -1};
  if (in >= 0 && pipe2(pipe_fds, O_CLOEXEC) != 0) {
    std::perror("pipe");
    return 1;
  }
  // A child that exits without draining its stdin must not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  std::fflush(nullptr);

  const double start = Now();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    const int child_in =
        in >= 0 ? pipe_fds[0] : open("/dev/null", O_RDONLY | O_CLOEXEC);
    const int child_out = open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (child_in < 0 || child_out < 0 || dup2(child_in, 0) < 0 ||
        dup2(child_out, 1) < 0) {
      _exit(127);
    }
    std::signal(SIGPIPE, SIG_DFL);
    execvp(child_argv[0], child_argv);
    std::perror(child_argv[0]);
    _exit(127);
  }
  bool fed = true;
  if (in >= 0) {
    close(pipe_fds[0]);
    fed = Feed(in, pipe_fds[1], chunk);
    close(pipe_fds[1]);
    close(in);
  }
  int status = 0;
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  pid_t waited;
  do {
    waited = wait4(pid, &status, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  const double wall = Now() - start;
  if (waited != pid) {
    std::perror("wait4");
    return 1;
  }
  if (!fed) {
    std::fprintf(stderr, "dmspawn: reading %s failed\n", stdin_path);
    return 1;
  }
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : -WTERMSIG(status);
  const double cpu =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);
  std::printf("{\"wall_s\": %.9f, \"cpu_s\": %.6f, \"peak_rss_mb\": %.6f, "
              "\"exit_code\": %d}\n",
              wall, cpu, static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6,
              code);
  return 0;
}
