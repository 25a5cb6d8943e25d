/* Prints getenv of each name, one line each: "(unset)" for NULL, else the
 * value with every byte outside printable ASCII, and '\', as \xNN. It asks
 * over the real environment followed by entries that a scan comparing
 * entries inline must still tell apart.
 *
 * With arguments, the names are argv and the entries are the fixed ones
 * below: one-byte names, a variable without '=', a name that is a prefix of
 * another, a value holding '=', an empty entry, entries that start with '=',
 * and bytes >= 0x80. Without arguments, stdin holds both, one a line: a
 * count n, n entries, then the names. So drawn entries may lack '=' or be
 * empty, which a parent's environment mapping cannot express.
 *
 * Every entry is a heap copy of its own length, so a sanitizer in the
 * process reports a read past an entry's NUL. */
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

extern char **environ;

static char *line(void) {
    static char *buf;
    static size_t cap;
    ssize_t n = getline(&buf, &cap, stdin);
    if (n < 0)
        return NULL;
    if (n > 0 && buf[n - 1] == '\n')
        buf[n - 1] = '\0';
    return strdup(buf);
}

int main(int argc, char **argv) {
    static const char *const odd[] = {
        "QQ=two", "Q=one", "Z", "", "Y", "Y=yes", "NOEQ", "NOEQ=after", "PREFIXED=long",
        "P=short", "A=B=C", "=", "=x", "==eq", "LONGNAM", "LONGNAME=full",
        "\xc3\xa9T\xff=\xe2\x82\xac\x80"};
    size_t extra = sizeof odd / sizeof *odd, nnames = (size_t)argc - 1;
    char **entries = (char **)odd, **names = argv + 1;
    if (argc == 1) {
        char *count = line();
        if (!count)
            return 2;
        extra = strtoul(count, NULL, 10);
        entries = calloc(extra + 1, sizeof *entries);
        for (size_t i = 0; entries && i < extra; i++)
            if (!(entries[i] = line()))
                return 2;
        names = calloc(1, sizeof *names);
        for (nnames = 0; names && (names[nnames] = line()); nnames++)
            names = realloc(names, (nnames + 2) * sizeof *names);
        if (!entries || !names)
            return 2;
    }
    size_t n = 0;
    while (environ[n])
        n++;
    char **env = malloc((n + extra + 1) * sizeof *env);
    if (!env)
        return 2;
    for (size_t i = 0; i < n; i++)
        env[i] = environ[i];
    for (size_t i = 0; i < extra; i++)
        if (!(env[n + i] = strdup(entries[i])))
            return 2;
    env[n + extra] = NULL;
    environ = env;
    for (size_t i = 0; i < nnames; i++) {
        const unsigned char *v = (const unsigned char *)getenv(names[i]);
        if (!v)
            fputs("(unset)", stdout);
        for (; v && *v; v++)
            printf(*v >= 0x20 && *v < 0x7f && *v != '\\' ? "%c" : "\\x%02x", *v);
        putchar('\n');
    }
    return 0;
}
