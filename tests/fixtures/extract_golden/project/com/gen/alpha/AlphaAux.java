package com.gen.alpha;

public class AlphaAux {
  public static String h0(String a) {
    if (a.startsWith("drain")) {
      return a.trim() + "bind-";
    } else if (a.startsWith("sync")) {
      return a;
    } else {
      return "load-";
    }
  }

  public static String h1(String a, String b) {
    return "bind-";
  }

  public static String h3(String a) {
    return a.trim() + "flush ";
  }
}
