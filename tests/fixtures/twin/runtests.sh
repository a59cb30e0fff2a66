#!/bin/sh
printf 'TEST\tt_app_a\t./app_a\n'
printf 'TEST\tt_app_b\t./app_b\n'
