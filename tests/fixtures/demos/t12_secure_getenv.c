/* Prints secure_getenv("http_proxy"). */
#define _GNU_SOURCE
#include <stdio.h>
#include <stdlib.h>

int main(void) {
    const char *v = secure_getenv("http_proxy");
    printf("%s\n", v ? v : "(unset)");
    return 0;
}
